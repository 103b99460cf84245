package resultcache

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestHasherCanonical: distinct value sequences never collide through
// encoding ambiguity, and equal ones always agree.
func TestHasherCanonical(t *testing.T) {
	if DigestOf("ab", "c") == DigestOf("a", "bc") {
		t.Fatal("length prefixing failed: shifted strings collide")
	}
	type pair struct{ A, B string }
	if DigestOf(pair{"ab", "c"}) == DigestOf(pair{"a", "bc"}) {
		t.Fatal("shifted string fields collide")
	}
	if DigestOf([]string{"ab", "c"}) == DigestOf([]string{"a", "bc"}) {
		t.Fatal("shifted slice elements collide")
	}
	if DigestOf("ab") == DigestOf("ab", "") {
		t.Fatal("empty trailing string should change the digest")
	}
	if DigestOf(uint64(1), true) != DigestOf(uint64(1), true) {
		t.Fatal("identical values produced different digests")
	}
	if DigestOf(uint64(1), true) == DigestOf(true, uint64(1)) {
		t.Fatal("order should matter")
	}
	// Every integer width and sign is written as 64 bits.
	if DigestOf(int8(-1)) != DigestOf(int64(-1)) || DigestOf(uint16(7)) != DigestOf(uint64(7)) {
		t.Fatal("integers of equal value digest differently by width")
	}
	if DigestOf(0.0) == DigestOf(math.Copysign(0, -1)) {
		t.Fatal("floats are not written by their bits: -0 and +0 collide")
	}
}

func TestDigestOfNilVersusEmpty(t *testing.T) {
	type withSlice struct{ S []int }
	if DigestOf(withSlice{}) == DigestOf(withSlice{S: []int{}}) {
		t.Error("nil and empty slices collide")
	}
	if DigestOf(withSlice{S: []int{}}) == DigestOf(withSlice{S: []int{0}}) {
		t.Error("empty slice and one zero element collide")
	}
	type inner struct{ N int }
	type withPtr struct {
		P *inner
		M int
	}
	if DigestOf(withPtr{}) == DigestOf(withPtr{P: &inner{}}) {
		t.Error("nil and zero-valued pointers collide")
	}
	if DigestOf(withPtr{P: &inner{N: 1}}) == DigestOf(withPtr{P: &inner{N: 2}}) {
		t.Error("pointed-to values are not walked")
	}
	// The presence bit is part of the encoding, so a nil pointer cannot
	// pass for a present one whose content absorbs the next field.
	if DigestOf(withPtr{M: 5}) == DigestOf(withPtr{P: &inner{}, M: 5}) {
		t.Error("presence bit missing")
	}
}

func TestDigestOfFields(t *testing.T) {
	type tagged struct {
		Keep    int
		hidden  string
		Scratch *int `hash:"-"`
	}
	base := tagged{Keep: 1, hidden: "x"}
	n := 9
	if DigestOf(base) != DigestOf(tagged{Keep: 1, hidden: "x", Scratch: &n}) {
		t.Error(`a field tagged hash:"-" changed the digest`)
	}
	if DigestOf(base) == DigestOf(tagged{Keep: 1, hidden: "y"}) {
		t.Error("an unexported field is not digested")
	}
	if DigestOf(base) == DigestOf(tagged{Keep: 2, hidden: "x"}) {
		t.Error("an exported field is not digested")
	}
	if DigestOf([2]int{1, 2}) == DigestOf([2]int{2, 1}) {
		t.Error("array order is not digested")
	}
}

func TestDigestOfPanicsOnUnencodable(t *testing.T) {
	for name, v := range map[string]any{
		"map":       struct{ M map[string]int }{},
		"func":      struct{ F func() }{},
		"chan":      struct{ C chan int }{},
		"interface": struct{ I any }{},
		"nil":       nil,
	} {
		t.Run(name, func(t *testing.T) {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("DigestOf(%T) did not panic", v)
				}
				if name != "nil" && !strings.Contains(r.(string), name) {
					t.Fatalf("panic %q does not name the kind %s", r, name)
				}
			}()
			DigestOf(v)
		})
	}
}

func TestCheckDir(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "plain-file")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, ok := range []string{dir, filepath.Join(dir, "not-yet-created")} {
		if err := CheckDir(ok); err != nil {
			t.Errorf("CheckDir(%q) = %v, want nil", ok, err)
		}
	}
	for bad, want := range map[string]string{
		"":                              "blank",
		" ":                             "blank",
		"\t\n":                          "blank",
		file:                            "not a directory",
		filepath.Join(file, "under-it"): "not a directory",
	} {
		if err := CheckDir(bad); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("CheckDir(%q) = %v, want an error saying %q", bad, err, want)
		}
	}
}
