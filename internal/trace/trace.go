// Package trace defines the address-trace format shared by the Pixie-style
// annotator and the Cache2000-style trace-driven simulator: in-memory
// buffers, a compact binary encoding for trace files, and the set-sampling
// trace filter whose preprocessing cost is the foil to Tapeworm's free
// hardware filtering (Section 3.2).
package trace

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"

	"tapeworm/internal/mem"
)

// Entry is one trace record: a virtual address and an access kind.
type Entry struct {
	VA   mem.VAddr
	Kind mem.RefKind
}

// Buffer is an in-memory trace.
type Buffer struct {
	entries []Entry
}

// Append adds one entry.
func (b *Buffer) Append(e Entry) { b.entries = append(b.entries, e) }

// Len returns the number of entries.
func (b *Buffer) Len() int { return len(b.entries) }

// Entries returns the backing slice (not a copy).
func (b *Buffer) Entries() []Entry { return b.entries }

// Reset empties the buffer, retaining capacity.
func (b *Buffer) Reset() { b.entries = b.entries[:0] }

// magic identifies trace files ("TWT2" = Tapeworm trace v2).
var magic = [4]byte{'T', 'W', 'T', '2'}

// Write encodes the buffer to w: a magic header, an entry count, then one
// 5-byte record per entry (4-byte little-endian address, 1-byte kind).
func (b *Buffer) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint64(hdr[:], uint64(len(b.entries)))
	if _, err := bw.Write(hdr[:]); err != nil {
		return err
	}
	var rec [5]byte
	for _, e := range b.entries {
		binary.LittleEndian.PutUint32(rec[:4], uint32(e.VA))
		rec[4] = byte(e.Kind)
		if _, err := bw.Write(rec[:]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Read decodes a trace file produced by Write.
func Read(r io.Reader) (*Buffer, error) {
	br := bufio.NewReader(r)
	var m [4]byte
	if _, err := io.ReadFull(br, m[:]); err != nil {
		return nil, fmt.Errorf("trace: reading magic: %w", err)
	}
	if m != magic {
		return nil, fmt.Errorf("trace: bad magic %q", m)
	}
	var hdr [8]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("trace: reading header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[:])
	const maxEntries = 1 << 30
	if n > maxEntries {
		return nil, fmt.Errorf("trace: implausible entry count %d", n)
	}
	// The count is untrusted until the records arrive: size the buffer
	// for at most initialEntries up front and let append grow it, so a
	// corrupt header fails on its missing records instead of reserving
	// gigabytes.
	const initialEntries = 1 << 16
	b := &Buffer{entries: make([]Entry, 0, min(n, initialEntries))}
	var rec [5]byte
	for i := uint64(0); i < n; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("trace: entry %d: %w", i, err)
		}
		k := mem.RefKind(rec[4])
		if k > mem.Store {
			return nil, fmt.Errorf("trace: entry %d has bad kind %d", i, rec[4])
		}
		b.entries = append(b.entries, Entry{
			VA:   mem.VAddr(binary.LittleEndian.Uint32(rec[:4])),
			Kind: k,
		})
	}
	return b, nil
}

// SetIndexFunc maps an address to a cache set; the filter borrows it from
// the cache geometry under study.
type SetIndexFunc func(addr uint32) int

// FilterSample returns the subtrace of entries mapping to sampled sets.
// This is the software preprocessing that trace-driven set sampling
// requires [Puzak85, Kessler91]: unlike Tapeworm's trap-pattern sampling,
// every address must be examined (CyclesPerEntry each), and obtaining a
// *different* sample means reprocessing the full trace again.
func FilterSample(in *Buffer, setOf SetIndexFunc, sampled func(set int) bool) (*Buffer, uint64) {
	const cyclesPerEntry = 6 // index computation + test + copy
	out := &Buffer{}
	for _, e := range in.entries {
		if sampled(setOf(uint32(e.VA))) {
			out.Append(e)
		}
	}
	return out, uint64(in.Len()) * cyclesPerEntry
}
