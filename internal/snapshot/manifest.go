package snapshot

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"gosmr/internal/wire"
)

// ChunkRef is a manifest's record of one chunk: the manifest, not the
// chunk, is the authority for its length and checksum.
type ChunkRef struct{ Len, CRC uint32 }

// RefOf returns the ChunkRef naming c.
func RefOf(c []byte) ChunkRef {
	return ChunkRef{Len: uint32(len(c)), CRC: crc32.ChecksumIEEE(c)}
}

// Matches reports whether c is the chunk r names.
func (r ChunkRef) Matches(c []byte) bool {
	return uint32(len(c)) == r.Len && crc32.ChecksumIEEE(c) == r.CRC
}

// GenRef is one generation as a manifest names it.
type GenRef struct {
	// Cut is the merged index the generation was cut at — the same on
	// every replica, so it identifies the generation cluster-wide.
	Cut    wire.InstanceID
	Full   bool
	Chunks []ChunkRef
}

// Manifest is a snapshot's identity. Its chunks are numbered in one order
// everywhere: every generation's chunks, oldest generation first, then the
// reply cache's.
type Manifest struct {
	Cut    wire.InstanceID // state covers all merged instances <= Cut
	Groups int32           // ordering groups that produced the merged order
	Topo   []byte          // encoded topology in force at the cut
	Gens   []GenRef        // the chain: one full generation, then deltas
	RC     []ChunkRef      // the reply cache
}

// NumChunks returns how many chunks the manifest names.
func (m *Manifest) NumChunks() int {
	n := len(m.RC)
	for _, g := range m.Gens {
		n += len(g.Chunks)
	}
	return n
}

// Locate maps chunk index i (0 <= i < NumChunks) to its generation and its
// position there; gen == len(m.Gens) means the reply cache.
func (m *Manifest) Locate(i int) (gen, j int) {
	for g, gr := range m.Gens {
		if i < len(gr.Chunks) {
			return g, i
		}
		i -= len(gr.Chunks)
	}
	return len(m.Gens), i
}

// Ref returns the ChunkRef of chunk i.
func (m *Manifest) Ref(i int) ChunkRef {
	g, j := m.Locate(i)
	if g == len(m.Gens) {
		return m.RC[j]
	}
	return m.Gens[g].Chunks[j]
}

// Layout: u32 magic, u32 version, u32 size (the whole encoding, trailing
// CRC included), u64 cut, u32 groups, u32 topology length + bytes, u32
// generation count, then per generation: u64 cut, u8 full, u32 chunk count,
// and a (u32 length, u32 CRC32) pair per chunk; then the reply cache's u32
// chunk count and pairs; then the CRC32 of everything before it. All
// little-endian. The size sits in the fixed header so a joiner learns it
// from the first page of a manifest served in several.
const (
	manifestMagic   = 0x4D4E5347 // "GSNM"
	manifestVersion = 3          // earlier layouts are refused, not read
	// manifestHeader is the fixed prefix ManifestSize reads.
	manifestHeader = 12
	minManifest    = manifestHeader + 8 + 4 + 4 + 4 + 4 + 4
)

// ErrCorruptManifest reports a manifest that fails any check.
var ErrCorruptManifest = errors.New("snapshot: corrupt manifest")

// Encode returns the manifest's one encoding.
func (m *Manifest) Encode() []byte {
	n := minManifest + len(m.Topo) + 8*len(m.RC)
	for _, g := range m.Gens {
		n += 13 + 8*len(g.Chunks)
	}
	b := make([]byte, 0, n)
	b = binary.LittleEndian.AppendUint32(b, manifestMagic)
	b = binary.LittleEndian.AppendUint32(b, manifestVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	b = binary.LittleEndian.AppendUint64(b, uint64(m.Cut))
	b = binary.LittleEndian.AppendUint32(b, uint32(m.Groups))
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Topo)))
	b = append(b, m.Topo...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(m.Gens)))
	for _, g := range m.Gens {
		b = binary.LittleEndian.AppendUint64(b, uint64(g.Cut))
		if g.Full {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
		b = appendRefs(b, g.Chunks)
	}
	b = appendRefs(b, m.RC)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

func appendRefs(b []byte, refs []ChunkRef) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(refs)))
	for _, r := range refs {
		b = binary.LittleEndian.AppendUint32(b, r.Len)
		b = binary.LittleEndian.AppendUint32(b, r.CRC)
	}
	return b
}

// ManifestSize reads the total encoded size from a manifest's first
// 12 bytes (magic, version, size).
func ManifestSize(prefix []byte) (int, error) {
	if len(prefix) < manifestHeader ||
		binary.LittleEndian.Uint32(prefix) != manifestMagic ||
		binary.LittleEndian.Uint32(prefix[4:]) != manifestVersion {
		return 0, fmt.Errorf("%w: bad header", ErrCorruptManifest)
	}
	n := int(binary.LittleEndian.Uint32(prefix[8:]))
	if n < minManifest {
		return 0, fmt.Errorf("%w: size %d", ErrCorruptManifest, n)
	}
	return n, nil
}

// DecodeManifest parses and verifies a manifest. The input may come from a
// peer: every count and length is checked against the bytes that remain
// before anything is allocated from it, the topology must decode, and the
// chain must be well formed — one full generation first, deltas after it,
// generation cuts rising to the manifest's cut. The returned manifest
// shares nothing with b.
func DecodeManifest(b []byte) (*Manifest, error) {
	fail := func(what string) (*Manifest, error) {
		return nil, fmt.Errorf("%w: %s", ErrCorruptManifest, what)
	}
	size, err := ManifestSize(b)
	if err != nil {
		return nil, err
	}
	if size != len(b) {
		return fail("size mismatch")
	}
	body := b[:len(b)-4]
	if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(b[len(b)-4:]) {
		return fail("checksum mismatch")
	}
	r := body[manifestHeader:]
	u32 := func() uint32 { v := binary.LittleEndian.Uint32(r); r = r[4:]; return v }
	u64 := func() uint64 { v := binary.LittleEndian.Uint64(r); r = r[8:]; return v }
	refs := func() ([]ChunkRef, bool) {
		if len(r) < 4 {
			return nil, false
		}
		n := u32()
		if uint64(n)*8 > uint64(len(r)) {
			return nil, false
		}
		out := make([]ChunkRef, n)
		for i := range out {
			out[i] = ChunkRef{Len: u32(), CRC: u32()}
		}
		return out, true
	}
	m := &Manifest{Cut: wire.InstanceID(u64()), Groups: int32(u32())}
	if m.Cut < 0 || m.Groups < 1 {
		return fail("bad cut or group count")
	}
	tlen := u32()
	if uint64(tlen) > uint64(len(r)) {
		return fail("truncated topology")
	}
	if _, err := wire.DecodeTopology(r[:tlen]); err != nil {
		return fail("bad topology")
	}
	m.Topo = append([]byte(nil), r[:tlen]...)
	r = r[tlen:]
	if len(r) < 4 {
		return fail("truncated")
	}
	ngens := u32()
	if ngens == 0 || uint64(ngens)*13 > uint64(len(r)) {
		return fail("bad generation count")
	}
	m.Gens = make([]GenRef, ngens)
	prev := wire.InstanceID(-1)
	for i := range m.Gens {
		if len(r) < 9 {
			return fail("truncated generation")
		}
		g := &m.Gens[i]
		g.Cut = wire.InstanceID(u64())
		full := r[0]
		r = r[1:]
		g.Full = full == 1
		if full > 1 || g.Full != (i == 0) || g.Cut <= prev || g.Cut > m.Cut {
			return fail("malformed chain")
		}
		prev = g.Cut
		var ok bool
		if g.Chunks, ok = refs(); !ok {
			return fail("truncated chunk list")
		}
	}
	if prev != m.Cut {
		return fail("newest generation is not at the cut")
	}
	var ok bool
	if m.RC, ok = refs(); !ok {
		return fail("truncated reply-cache list")
	}
	if len(r) != 0 {
		return fail("trailing bytes")
	}
	return m, nil
}
