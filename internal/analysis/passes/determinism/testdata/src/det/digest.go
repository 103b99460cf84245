//twvet:scope determinism

package det

import "sort"

// hasher is a stand-in for a canonical digest encoder: writes must
// arrive in canonical order, so feeding it from an unsorted map range
// gives the same identity different digests run to run.
type hasher struct{ n uint64 }

// WriteString folds a length-prefixed string into the digest.
func (h *hasher) WriteString(s string) { h.n += uint64(len(s)) }

// WriteUint64 folds a fixed-width integer into the digest.
func (h *hasher) WriteUint64(v uint64) { h.n += v }

// digestFromMapRange hashes map entries in iteration order: flagged.
func digestFromMapRange(h *hasher, m map[string]uint64) {
	for k, v := range m { // want `nondeterministic order`
		h.WriteString(k)
		h.WriteUint64(v)
	}
}

// digestSorted flattens the map to sorted keys first: the sanctioned
// idiom for hashing map-valued identity fields.
func digestSorted(h *hasher, m map[string]uint64) {
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		h.WriteString(k)
		h.WriteUint64(m[k])
	}
}

var _ = digestFromMapRange
var _ = digestSorted
