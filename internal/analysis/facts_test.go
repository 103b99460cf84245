package analysis

import (
	"bytes"
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
