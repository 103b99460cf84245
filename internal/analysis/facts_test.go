package analysis

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"
)

// roundtripFact is a representative fact shape: a map-valued payload like
// pairing's TransfersOwnership deltas.
type roundtripFact struct {
	Deltas map[string]int
	Note   string
}

// AFact marks the test type as a fact.
func (*roundtripFact) AFact() {}

// factAnalyzers registers the test fact type the way both drivers do.
var factAnalyzers = []*Analyzer{{
	Name:      "roundtrip",
	Doc:       "test analyzer",
	FactTypes: []Fact{(*roundtripFact)(nil)},
}}

// TestFactsRoundTrip encodes a fact set to the vetx wire form and decodes
// it back, byte-stability and payload fidelity included. This is the
// serialization path the go command caches between `go vet` runs and the
// standalone driver skips (in-process store), so the golden invariant is
// that both sides see identical facts.
func TestFactsRoundTrip(t *testing.T) {
	RegisterFactTypes(factAnalyzers)
	in := factSet{
		{analyzer: "roundtrip", object: "MustClaim"}: &roundtripFact{
			Deltas: map[string]int{"result cache claim": 1}, Note: "transfer"},
		{analyzer: "roundtrip", object: "(*Claim).Release"}: &roundtripFact{
			Deltas: map[string]int{"result cache claim": -1}},
		{analyzer: "roundtrip", object: "Drop"}: &roundtripFact{},
	}

	data, err := encodeFacts(in)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	again, err := encodeFacts(in)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Error("encodeFacts is not byte-stable across calls; the go command caches vetx files by content")
	}

	out, err := decodeFacts(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("decoded %d facts, want %d", len(out), len(in))
	}
	for k, want := range in {
		got, ok := out[k].(*roundtripFact)
		if !ok {
			t.Fatalf("fact %v: missing or wrong type %T", k, out[k])
		}
		w := want.(*roundtripFact)
		if got.Note != w.Note || len(got.Deltas) != len(w.Deltas) {
			t.Errorf("fact %v: got %+v, want %+v", k, got, w)
		}
		for pair, d := range w.Deltas {
			if got.Deltas[pair] != d {
				t.Errorf("fact %v: delta[%q] = %d, want %d", k, pair, got.Deltas[pair], d)
			}
		}
	}
}

// TestFactsRejectForeignFile guards the header check: a file that is not
// a twvet fact file must error rather than decode garbage.
func TestFactsRejectForeignFile(t *testing.T) {
	if _, err := decodeFacts([]byte("not a fact file")); err == nil {
		t.Error("decodeFacts accepted a non-fact file")
	}
	data, err := encodeFacts(factSet{})
	if err != nil {
		t.Fatalf("encode empty: %v", err)
	}
	if fs, err := decodeFacts(data); err != nil || len(fs) != 0 {
		t.Errorf("empty set round-trip: %v, %d facts", err, len(fs))
	}
}

// factFile encodes records as a fact file exactly as encodeFacts frames
// them, without its guarantees: records may be empty, nil or repeated.
func factFile(tb testing.TB, records []gobFact) []byte {
	tb.Helper()
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(vetxHeader); err != nil {
		tb.Fatal(err)
	}
	if err := enc.Encode(records); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// malformedFactFile is a well-framed fact file whose records encodeFacts
// never writes.
type malformedFactFile struct {
	name string
	data []byte
}

func malformedFactFiles(tb testing.TB) []malformedFactFile {
	fact := &roundtripFact{Note: "x"}
	return []malformedFactFile{
		{"empty record", factFile(tb, []gobFact{{}})},
		{"empty analyzer", factFile(tb, []gobFact{{Object: "Drop", Fact: fact}})},
		{"empty object", factFile(tb, []gobFact{{Analyzer: "roundtrip", Fact: fact}})},
		{"nil fact", factFile(tb, []gobFact{{Analyzer: "roundtrip", Object: "Drop"}})},
		{"duplicate record", factFile(tb, []gobFact{{"roundtrip", "Drop", fact}, {"roundtrip", "Drop", fact}})},
	}
}

// TestFactsRejectMalformedRecords: a record with an empty key, no fact, or
// a key already seen must fail the decode instead of entering the store.
func TestFactsRejectMalformedRecords(t *testing.T) {
	RegisterFactTypes(factAnalyzers)
	for _, c := range malformedFactFiles(t) {
		if fs, err := decodeFacts(c.data); err == nil {
			t.Errorf("%s: decodeFacts accepted %d facts", c.name, len(fs))
		}
	}
}

// FuzzDecodeFacts feeds arbitrary bytes to the .vetx decoder. It must
// return a set or an error, never panic, and a set it accepts must
// survive encode→decode unchanged.
func FuzzDecodeFacts(f *testing.F) {
	RegisterFactTypes(factAnalyzers)
	for _, fs := range []factSet{
		{},
		{{analyzer: "roundtrip", object: "Drop"}: &roundtripFact{}},
		{
			{analyzer: "roundtrip", object: "MustClaim"}: &roundtripFact{
				Deltas: map[string]int{"result cache claim": 1}, Note: "transfer"},
			{analyzer: "roundtrip", object: "(*Claim).Release"}: &roundtripFact{
				Deltas: map[string]int{"result cache claim": -1}},
		},
	} {
		data, err := encodeFacts(fs)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, c := range malformedFactFiles(f) {
		f.Add(c.data)
	}
	f.Add([]byte("not a fact file"))
	f.Fuzz(func(t *testing.T, data []byte) {
		fs, err := decodeFacts(data)
		if err != nil {
			return
		}
		again, err := encodeFacts(fs)
		if err != nil {
			t.Fatalf("accepted set does not encode: %v", err)
		}
		back, err := decodeFacts(again)
		if err != nil {
			t.Fatalf("re-encoded set does not decode: %v", err)
		}
		if !reflect.DeepEqual(back, fs) {
			t.Fatalf("set changed across encode→decode:\n  got  %v\n  want %v", back, fs)
		}
	})
}
