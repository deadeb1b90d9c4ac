// Package snapshot defines the chunked snapshot contract shared by the
// service layer and the replica core, and the one format a snapshot has.
//
// A snapshot is its manifest and its chunks — in memory, on disk and on the
// wire alike:
//
//   - A Cutter marks a consistent cut and returns a Source. Marking is
//     cheap (copy-on-write: the service clones a key's pre-cut value only
//     when a post-cut command first mutates it), so execution resumes
//     immediately and the chunks drain concurrently.
//   - A Source yields deterministic, sorted, size-bounded chunks. Given the
//     same cut state and the same maxBytes, every replica produces the
//     identical chunk sequence, so chunks are byte-comparable across the
//     cluster.
//   - A generation (Gen) is one cut's worth of chunks, either Full (the
//     complete state) or a delta against the previous generation. Chains of
//     generations fold oldest→newest into the state at the newest cut, so
//     steady-state persistence writes only what changed.
//   - A Manifest names a snapshot: its cut, group count and topology, and
//     the (length, CRC32) of every chunk of every generation and of the
//     reply cache, in one order. The replica keeps the manifest beside the
//     chunks it names, writes the same bytes as its on-disk commit record,
//     and serves them to a joiner, which then fetches and verifies chunks
//     one by one against it.
//
// A service that offers only a whole-state blob is wrapped once, by
// Chunked, into a Cutter whose every generation is full.
package snapshot

import "errors"

// ErrCutActive is returned by CutSnapshot while a previous cut's Source has
// not been fully drained or closed. The core serializes cuts, so seeing it
// indicates a caller bug.
var ErrCutActive = errors.New("snapshot: previous cut still draining")

// ErrCorruptChunk reports an undecodable chunk or chain during restore.
var ErrCorruptChunk = errors.New("snapshot: corrupt chunk")

// Source drains the chunks of one cut. Implementations must tolerate
// concurrent Execute calls on the owning service — that is the point.
type Source interface {
	// Next returns the next chunk, packed up to maxBytes. A chunk exceeds
	// maxBytes only when a single atomic entry does (one key/value pair
	// larger than the cap cannot be split). Next returns (nil, nil) when
	// the generation is fully drained; the Source releases its
	// copy-on-write state at that point.
	Next(maxBytes int) ([]byte, error)
	// Close abandons the drain and releases copy-on-write state early.
	// Idempotent; draining to completion makes it a no-op.
	Close()
}

// Cutter is the chunked snapshot contract. A service implementing it is
// snapshotted by marking a cut (fast, under quiesce) and draining chunks in
// the background while execution continues.
type Cutter interface {
	// CutSnapshot marks a consistent cut of the current state and returns
	// a Source draining it. full requests a complete generation; false
	// requests a delta holding only the keys mutated since the previous
	// cut. The returned bool reports the fullness actually produced (an
	// implementation may promote a delta to full — e.g. on its first cut).
	// Only one cut may be active at a time.
	CutSnapshot(full bool) (Source, bool, error)
	// RestoreChunks replaces the state from a chain of generations,
	// oldest first. The first generation of the chain must be Full;
	// later deltas overlay it. Chunk slices are borrowed for the call.
	RestoreChunks(gens []Gen) error
}

// Gen is one snapshot generation: the chunks drained from a single cut.
type Gen struct {
	// Full marks a complete-state generation; false is a delta against
	// the previous generation in the chain.
	Full bool
	// Chunks are the drained chunks in Source order.
	Chunks [][]byte
}

// Bytes returns the total payload size of the generation.
func (g Gen) Bytes() int {
	n := 0
	for _, c := range g.Chunks {
		n += len(c)
	}
	return n
}

// Drain pulls every chunk from src at the given cap and closes it.
func Drain(src Source, maxBytes int) ([][]byte, error) {
	defer src.Close()
	var chunks [][]byte
	for {
		c, err := src.Next(maxBytes)
		if err != nil {
			return nil, err
		}
		if c == nil {
			return chunks, nil
		}
		chunks = append(chunks, c)
	}
}

// SplitBlob slices blob into cap-sized chunks at arbitrary byte offsets.
// Concatenating the chunks reproduces blob exactly. A nil/empty blob yields
// no chunks.
func SplitBlob(blob []byte, maxBytes int) [][]byte {
	if maxBytes <= 0 {
		maxBytes = 1
	}
	var chunks [][]byte
	for len(blob) > 0 {
		n := min(len(blob), maxBytes)
		chunks = append(chunks, blob[:n:n])
		blob = blob[n:]
	}
	return chunks
}

// JoinChunks concatenates chunks back into one blob.
func JoinChunks(chunks [][]byte) []byte {
	n := 0
	for _, c := range chunks {
		n += len(c)
	}
	b := make([]byte, 0, n)
	for _, c := range chunks {
		b = append(b, c...)
	}
	return b
}
