package snapshot

import "fmt"

// Blob is the whole-state snapshot contract: Snapshot serializes the full
// state, Restore replaces it from such a blob.
type Blob interface {
	Snapshot() ([]byte, error)
	Restore(snapshot []byte) error
}

// Chunked returns svc's chunked contract: svc itself when it implements
// Cutter, otherwise an adapter that serializes the blob under the cut's
// quiesce (a pause linear in state size) and hands it out as maxBytes
// slices — so even a blob service never puts an unbounded unit on disk or
// the wire.
// Every generation the adapter cuts is full; it refuses to restore a chain
// that holds deltas.
func Chunked(svc Blob) Cutter {
	if c, ok := svc.(Cutter); ok {
		return c
	}
	return blobCutter{svc}
}

type blobCutter struct{ svc Blob }

func (b blobCutter) CutSnapshot(bool) (Source, bool, error) {
	blob, err := b.svc.Snapshot()
	if err != nil {
		return nil, false, err
	}
	return &blobSource{blob: blob}, true, nil
}

func (b blobCutter) RestoreChunks(gens []Gen) error {
	for _, g := range gens {
		if !g.Full {
			return fmt.Errorf("snapshot: chain has delta generations but the service has no chunk contract")
		}
	}
	if len(gens) == 0 {
		return ErrCorruptChunk
	}
	return b.svc.Restore(JoinChunks(gens[len(gens)-1].Chunks))
}

// blobSource drains a whole-state blob as maxBytes slices.
type blobSource struct {
	blob []byte
	off  int
}

func (b *blobSource) Next(maxBytes int) ([]byte, error) {
	if b.off >= len(b.blob) {
		return nil, nil
	}
	if maxBytes < 1 {
		maxBytes = 1
	}
	n := min(len(b.blob)-b.off, maxBytes)
	c := b.blob[b.off : b.off+n : b.off+n]
	b.off += n
	return c, nil
}

func (b *blobSource) Close() {}
