package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"gosmr/internal/wire"
)

var testTopo = wire.EncodeTopology(&wire.Topology{Groups: 2, Peers: []string{"a"}})

func testManifest() *Manifest {
	return &Manifest{
		Cut:    29,
		Groups: 2,
		Topo:   testTopo,
		Gens: []GenRef{
			{Cut: 9, Full: true, Chunks: []ChunkRef{RefOf([]byte("abc")), RefOf(nil)}},
			{Cut: 19, Chunks: []ChunkRef{}},
			{Cut: 29, Chunks: []ChunkRef{RefOf([]byte("delta-bytes"))}},
		},
		RC: []ChunkRef{RefOf([]byte("rc"))},
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := testManifest()
	b := m.Encode()
	got, err := DecodeManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip = %+v, want %+v", got, m)
	}
	if n, err := ManifestSize(b[:manifestHeader]); err != nil || n != len(b) {
		t.Fatalf("ManifestSize = %d, %v; want %d", n, err, len(b))
	}
	if got.NumChunks() != 4 {
		t.Fatalf("NumChunks = %d, want 4", got.NumChunks())
	}
	// Manifest order: every generation's chunks, then the reply cache's.
	for i, want := range []struct{ gen, j int }{{0, 0}, {0, 1}, {2, 0}, {3, 0}} {
		if g, j := got.Locate(i); g != want.gen || j != want.j {
			t.Errorf("Locate(%d) = %d,%d, want %d,%d", i, g, j, want.gen, want.j)
		}
	}
	if !got.Ref(3).Matches([]byte("rc")) || got.Ref(2).Matches([]byte("delta-bytez")) {
		t.Error("Ref/Matches do not name the right chunks")
	}
}

// reseal rewrites the trailing CRC after a structural edit, so the edit
// reaches the structural checks instead of the checksum.
func reseal(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.ChecksumIEEE(b[:len(b)-4]))
	return b
}

// TestManifestRejectsCorruption: a manifest arrives from disk or from a
// peer, so every truncation, every single-bit flip and every over-counted
// or malformed field must be refused — never decoded into something else,
// never a panic, never an allocation sized by an unchecked count.
func TestManifestRejectsCorruption(t *testing.T) {
	good := testManifest().Encode()
	for n := range len(good) {
		if _, err := DecodeManifest(good[:n]); err == nil {
			t.Fatalf("truncated to %d of %d bytes: accepted", n, len(good))
		}
	}
	for i := range good {
		for bit := range 8 {
			b := bytes.Clone(good)
			b[i] ^= 1 << bit
			if _, err := DecodeManifest(b); err == nil {
				t.Fatalf("bit %d of byte %d flipped: accepted", bit, i)
			}
		}
	}
	// Offsets into testManifest's encoding: header 12, cut 8, groups 4,
	// topology length 4 and bytes, generation count 4, then generation 0
	// (cut 8, full 1, chunk count 4, two refs) ...
	const (
		offCut     = 12
		offGroups  = 20
		offTopoLen = 24
	)
	offNGens := offTopoLen + 4 + len(testTopo)
	offGen0 := offNGens + 4
	u32 := func(off int, v uint32) func([]byte) []byte {
		return func(b []byte) []byte { binary.LittleEndian.PutUint32(b[off:], v); return b }
	}
	cases := []struct {
		name string
		edit func([]byte) []byte
	}{
		{"size larger than the bytes", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], uint32(len(b)+1))
			return b
		}},
		{"negative cut", func(b []byte) []byte { binary.LittleEndian.PutUint64(b[offCut:], 1<<63); return b }},
		{"zero groups", u32(offGroups, 0)},
		{"over-counted topology", u32(offTopoLen, 1<<31)},
		{"topology that does not decode", u32(offTopoLen, uint32(len(testTopo)-1))},
		{"zero generations", u32(offNGens, 0)},
		{"over-counted generations", u32(offNGens, 1<<30)},
		{"over-counted chunks", u32(offGen0+9, 1<<30)},
		{"delta first", func(b []byte) []byte { b[offGen0+8] = 0; return b }},
		{"full flag not 0 or 1", func(b []byte) []byte { b[offGen0+8] = 2; return b }},
		{"generation above the cut", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[offGen0:], 30)
			return b
		}},
		{"trailing bytes", func(b []byte) []byte {
			b = append(b[:len(b)-4:len(b)-4], 0, 0, 0, 0, 0, 0, 0, 0)
			binary.LittleEndian.PutUint32(b[8:], uint32(len(b)))
			return b
		}},
	}
	for _, c := range cases {
		b := reseal(c.edit(bytes.Clone(good)))
		var allocs float64
		allocs = testing.AllocsPerRun(5, func() {
			if _, err := DecodeManifest(b); !errors.Is(err, ErrCorruptManifest) {
				t.Fatalf("%s: err = %v, want ErrCorruptManifest", c.name, err)
			}
		})
		if allocs > 20 {
			t.Errorf("%s: %.0f allocs rejecting it — a count was trusted before the check", c.name, allocs)
		}
	}
	// Chains whose generations are out of order or not ending at the cut.
	for name, gens := range map[string][]GenRef{
		"generation cuts not rising":      {{Cut: 9, Full: true}, {Cut: 9}},
		"newest generation below the cut": {{Cut: 9, Full: true}},
		"second full generation":          {{Cut: 9, Full: true}, {Cut: 29, Full: true}},
	} {
		m := testManifest()
		m.Gens = gens
		if _, err := DecodeManifest(m.Encode()); !errors.Is(err, ErrCorruptManifest) {
			t.Errorf("%s: err = %v, want ErrCorruptManifest", name, err)
		}
	}
}

// FuzzDecodeManifest: any input either fails to decode or decodes to a
// manifest whose encoding is exactly the input.
func FuzzDecodeManifest(f *testing.F) {
	f.Add(testManifest().Encode())
	f.Add((&Manifest{Cut: 0, Groups: 1, Topo: testTopo, Gens: []GenRef{{Full: true}}}).Encode())
	f.Add([]byte("GSNM"))
	f.Fuzz(func(t *testing.T, b []byte) {
		m, err := DecodeManifest(b)
		if err != nil {
			return
		}
		if !bytes.Equal(m.Encode(), b) {
			t.Fatalf("decoded manifest re-encodes differently")
		}
	})
}

type blobSvc struct{ state []byte }

func (s *blobSvc) Snapshot() ([]byte, error) { return bytes.Clone(s.state), nil }
func (s *blobSvc) Restore(b []byte) error    { s.state = bytes.Clone(b); return nil }

func TestChunkedBlobAdapter(t *testing.T) {
	svc := &blobSvc{state: []byte("0123456789")}
	c := Chunked(svc)
	src, full, err := c.CutSnapshot(false)
	if err != nil || !full {
		t.Fatalf("blob cut = full %v, err %v; want a full generation", full, err)
	}
	chunks, err := Drain(src, 4)
	if err != nil || len(chunks) != 3 || string(chunks[2]) != "89" {
		t.Fatalf("drained %q, %v", chunks, err)
	}
	restored := &blobSvc{}
	if err := Chunked(restored).RestoreChunks([]Gen{{Full: true, Chunks: chunks}}); err != nil ||
		string(restored.state) != "0123456789" {
		t.Fatalf("restore = %q, %v", restored.state, err)
	}
	if err := Chunked(restored).RestoreChunks([]Gen{{Full: true, Chunks: chunks}, {Chunks: chunks}}); err == nil {
		t.Error("blob adapter accepted a chain holding a delta")
	}
	if err := Chunked(restored).RestoreChunks(nil); err == nil {
		t.Error("blob adapter accepted an empty chain")
	}
}
