package trace

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
	"testing/quick"

	"tapeworm/internal/mem"
	"tapeworm/internal/rng"
)

func TestRoundTrip(t *testing.T) {
	var b Buffer
	entries := []Entry{
		{VA: 0x0040_0000, Kind: mem.IFetch},
		{VA: 0x1000_0004, Kind: mem.Load},
		{VA: 0x7fff_f000, Kind: mem.Store},
	}
	for _, e := range entries {
		b.Append(e)
	}
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != len(entries) {
		t.Fatalf("read %d entries, want %d", got.Len(), len(entries))
	}
	for i, e := range got.Entries() {
		if e != entries[i] {
			t.Errorf("entry %d = %+v, want %+v", i, e, entries[i])
		}
	}
}

func TestRoundTripEmpty(t *testing.T) {
	var b Buffer
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 0 {
		t.Fatalf("empty trace read back %d entries", got.Len())
	}
}

func TestRoundTripQuick(t *testing.T) {
	f := func(seed uint64, nRaw uint16) bool {
		r := rng.New(seed)
		n := int(nRaw % 2000)
		var b Buffer
		for i := 0; i < n; i++ {
			b.Append(Entry{
				VA:   mem.VAddr(r.Uint32()),
				Kind: mem.RefKind(r.Intn(3)),
			})
		}
		var buf bytes.Buffer
		if b.Write(&buf) != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || got.Len() != n {
			return false
		}
		for i := range got.Entries() {
			if got.Entries()[i] != b.Entries()[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	_, err := Read(strings.NewReader("NOPE\x00\x00\x00\x00\x00\x00\x00\x00"))
	if err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic accepted: %v", err)
	}
}

func TestReadRejectsTruncation(t *testing.T) {
	var b Buffer
	b.Append(Entry{VA: 1, Kind: mem.IFetch})
	b.Append(Entry{VA: 2, Kind: mem.Load})
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := Read(bytes.NewReader(raw[:len(raw)-3])); err == nil {
		t.Fatal("truncated trace accepted")
	}
}

func TestReadRejectsBadKind(t *testing.T) {
	var b Buffer
	b.Append(Entry{VA: 1, Kind: mem.IFetch})
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[len(raw)-1] = 9 // corrupt the kind byte
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupt kind accepted")
	}
}

func TestReadRejectsImplausibleCount(t *testing.T) {
	raw := append([]byte("TWT2"), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f)
	if _, err := Read(bytes.NewReader(raw)); err == nil {
		t.Fatal("implausible count accepted")
	}
}

// oversizedHeader is a complete trace header claiming 1<<30 entries (the
// largest plausible count) followed by no records at all.
func oversizedHeader() []byte {
	return append([]byte("TWT2"), 0, 0, 0, 0x40, 0, 0, 0, 0)
}

// TestReadOversizedHeaderFailsCheaply: a header whose count outruns the
// file must fail on the first missing record without first reserving
// room for every entry it claims (8 GiB for this header).
func TestReadOversizedHeaderFailsCheaply(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Read(bytes.NewReader(oversizedHeader()))
	runtime.ReadMemStats(&after)
	if err == nil || !strings.HasPrefix(err.Error(), "trace: entry 0: ") {
		t.Fatalf("oversized header: err = %v, want a trace: entry 0 error", err)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > 4<<20 {
		t.Fatalf("reading a 12-byte file allocated %d bytes", got)
	}
}

// FuzzTraceRead feeds arbitrary bytes to Read. Every input must either
// fail with an error or decode to a trace whose own encoding is exactly
// the prefix of the input that Read consumed.
func FuzzTraceRead(f *testing.F) {
	var b Buffer
	b.Append(Entry{VA: 0x0040_0000, Kind: mem.IFetch})
	b.Append(Entry{VA: 0x1000_0004, Kind: mem.Load})
	b.Append(Entry{VA: 0x7fff_f000, Kind: mem.Store})
	var buf bytes.Buffer
	if err := b.Write(&buf); err != nil {
		f.Fatal(err)
	}
	good := buf.Bytes()
	badKind := bytes.Clone(good)
	badKind[len(badKind)-1] = 9
	f.Add(good)
	f.Add(good[:len(good)-3])
	f.Add([]byte("NOPE\x00\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(badKind)
	f.Add(oversizedHeader())
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := got.Write(&out); err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, out.Bytes()) {
			t.Fatalf("decoded %d entries that re-encode differently from the input", got.Len())
		}
	})
}

func TestReset(t *testing.T) {
	var b Buffer
	b.Append(Entry{VA: 1})
	b.Reset()
	if b.Len() != 0 {
		t.Fatal("Reset did not empty the buffer")
	}
}

func TestFilterSample(t *testing.T) {
	// 64 sets of 16-byte lines; sample sets 0-31 (first half).
	setOf := func(addr uint32) int { return int((addr >> 4) & 63) }
	sampled := func(s int) bool { return s < 32 }

	var in Buffer
	for i := 0; i < 128; i++ {
		in.Append(Entry{VA: mem.VAddr(i * 16), Kind: mem.IFetch})
	}
	out, cycles := FilterSample(&in, setOf, sampled)
	if out.Len() != 64 {
		t.Fatalf("filtered %d entries, want 64", out.Len())
	}
	for _, e := range out.Entries() {
		if !sampled(setOf(uint32(e.VA))) {
			t.Fatalf("unsampled entry %#x survived the filter", e.VA)
		}
	}
	// The preprocessing cost is what Tapeworm's trap-pattern sampling
	// avoids: proportional to the FULL trace, not the sample.
	if cycles != uint64(in.Len())*6 {
		t.Fatalf("preprocessing cost %d, want %d", cycles, in.Len()*6)
	}
}
