package wire

import "testing"

// Allocation regression guards for the zero-copy hot path, run by plain
// `go test` so CI fails the moment pooling or append-encoding rots. The
// bounds are the PR's acceptance criteria: steady-state encode is
// allocation-free; decode+deliver stays within a small fixed budget (pool
// refills after a GC may cost the odd allocation, hence the slack).
const (
	maxEncodeAllocs = 0
	maxDecodeAllocs = 2
)

func TestEncodeHotPathAllocs(t *testing.T) {
	propose := &Propose{View: 3, ID: 42, DecidedUpTo: 41, Value: make([]byte, 1300)}
	reqs := []*ClientRequest{
		{ClientID: 1, Seq: 1, Payload: make([]byte, 128)},
		{ClientID: 2, Seq: 7, Payload: make([]byte, 128)},
	}
	// The transfer responder's steady state: one pooled chunk per request,
	// Data borrowing the snapshot's chunk.
	chunk := NewSnapshotChunk()
	chunk.Cut, chunk.Index, chunk.OK = 42, 7, true
	chunk.Data = make([]byte, 32<<10)
	// Every peer frame rides a header envelope, reused by the sender
	// exactly like this.
	peer := &PeerMsg{Epoch: 3, Group: 2, Msg: propose}
	buf := make([]byte, 0, 40<<10)
	for name, fn := range map[string]func(){
		"AppendMessage/Propose":       func() { buf = AppendMessage(buf[:0], propose) },
		"AppendMessage/PeerMsg":       func() { buf = AppendMessage(buf[:0], peer) },
		"AppendMessage/SnapshotChunk": func() { buf = AppendMessage(buf[:0], chunk) },
		"AppendBatch":                 func() { buf = AppendBatch(buf[:0], reqs) },
	} {
		if got := testing.AllocsPerRun(200, fn); got > maxEncodeAllocs {
			t.Errorf("%s: %.1f allocs/op, budget %d", name, got, maxEncodeAllocs)
		}
	}
}

func TestDecodeHotPathAllocs(t *testing.T) {
	propose := Marshal(&Propose{View: 3, ID: 42, DecidedUpTo: 41, Value: make([]byte, 1300)})
	peer := Marshal(&PeerMsg{Epoch: 3, Group: 2, Msg: &Propose{View: 3, ID: 42, Value: make([]byte, 1300)}})
	accept := Marshal(&Accept{View: 3, ID: 42})
	chunkReq := Marshal(&SnapshotChunkReq{Cut: 42, Index: 7})
	chunkResp := Marshal(&SnapshotChunk{Cut: 42, Index: 7, OK: true,
		Data: make([]byte, 32<<10)})
	batch := EncodeBatch([]*ClientRequest{
		{ClientID: 1, Seq: 1, Payload: make([]byte, 128)},
		{ClientID: 2, Seq: 7, Payload: make([]byte, 128)},
	})
	var reqs []*ClientRequest
	for name, fn := range map[string]func(){
		// The follower's hottest inbound message, borrowed then released.
		"Unmarshal/Propose": func() {
			m, err := Unmarshal(propose)
			if err != nil {
				t.Fatal(err)
			}
			Release(m)
		},
		// The reader's steady state: header, then the message inline — no
		// envelope struct, no nested copy.
		"UnmarshalPeer/Propose": func() {
			_, _, m, err := UnmarshalPeer(peer)
			if err != nil {
				t.Fatal(err)
			}
			Release(m)
		},
		// The leader's hottest inbound message.
		"Unmarshal/Accept": func() {
			m, err := Unmarshal(accept)
			if err != nil {
				t.Fatal(err)
			}
			Release(m)
		},
		// The transfer hot path, both directions: pooled structs, Data
		// borrowing the frame.
		"Unmarshal/SnapshotChunkReq": func() {
			m, err := Unmarshal(chunkReq)
			if err != nil {
				t.Fatal(err)
			}
			Release(m)
		},
		"Unmarshal/SnapshotChunk": func() {
			m, err := Unmarshal(chunkResp)
			if err != nil {
				t.Fatal(err)
			}
			Release(m)
		},
		// The deliver path: decode a decided batch into reused storage.
		"DecodeBatchInto": func() {
			var err error
			reqs, err = DecodeBatchInto(reqs, batch)
			if err != nil {
				t.Fatal(err)
			}
			for _, r := range reqs {
				Release(r)
			}
		},
	} {
		if got := testing.AllocsPerRun(200, fn); got > maxDecodeAllocs {
			t.Errorf("%s: %.1f allocs/op, budget %d", name, got, maxDecodeAllocs)
		}
	}
}
