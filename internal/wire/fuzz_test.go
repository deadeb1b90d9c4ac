package wire

import (
	"bytes"
	"testing"
)

// FuzzUnmarshalRoundTrip guards the borrow-ownership codec against aliasing
// and round-trip bugs: for every input that decodes, the message must
// re-encode to the same bytes (the codec has exactly one encoding per
// message), Size must predict the re-encoded length, and a Retained message
// must survive the frame buffer being recycled and rewritten — the exact
// lifecycle of a pooled transport read buffer. Truncated and corrupt inputs
// must error without panicking.
func FuzzUnmarshalRoundTrip(f *testing.F) {
	// Seed with every bare message type, peer frames (which Unmarshal must
	// reject: it is bare-only), and adversarial prefixes and truncations.
	seeds := []Message{
		&Hello{ID: 2},
		&Prepare{View: 7, FirstUnstable: 42},
		&PrepareOK{View: 7, Entries: []InstanceState{
			{ID: 42, AcceptedView: 3, Decided: true, Value: []byte("abc")},
			{ID: 43, AcceptedView: 6},
		}},
		&Propose{View: 7, ID: 44, DecidedUpTo: 41, Value: []byte{1, 2, 3, 4}},
		&Accept{View: 7, ID: 44},
		&Heartbeat{View: 7, DecidedUpTo: 43},
		&CatchUpQuery{From: 10, To: 20},
		&CatchUpResp{Entries: []DecidedValue{{ID: 10, Value: []byte("x")}}},
		&CatchUpResp{HasSnapshot: true, Meta: SnapshotMeta{
			LastIncluded: 9, Groups: 4, TotalBytes: 1 << 30}},
		&SnapshotChunkReq{Cut: 9, Offset: 1 << 20, MaxBytes: 256 << 10},
		&SnapshotChunk{Cut: 9, Offset: 1 << 20, Total: 1 << 30, OK: true, Data: []byte("chunk-data")},
		&SnapshotChunk{Cut: 9, OK: false},
		&ClientRequest{ClientID: 0xdeadbeef, Seq: 17, Payload: []byte("hello")},
		&ClientReply{ClientID: 1, Seq: 2, OK: true, Redirect: NoRedirect, Payload: []byte("ok")},
		&Heartbeat{View: 7, DecidedUpTo: 43, LeaseMS: 250, LeaseSeq: 9},
		&LeaseAck{View: 7, Seq: 9},
		&ReadIndexQuery{Seq: 4},
		&ReadIndexResp{Seq: 4, Index: 99, OK: true},
		&ClientRead{ClientID: 0xfeed, Seq: 2, Consistency: 1, Payload: []byte("k")},
		&PeerMsg{Group: 3, Msg: &Propose{View: 1, ID: 2, DecidedUpTo: 1, Value: []byte("grouped")}},
		&PeerMsg{Group: 1, Msg: &Accept{View: 1, ID: 2}},
		&PeerMsg{Group: 2, Msg: &Heartbeat{View: 1, DecidedUpTo: 3, LeaseMS: 100, LeaseSeq: 1}},
		&PeerMsg{Epoch: 3, Msg: &Propose{View: 7, ID: 44, DecidedUpTo: 41, Value: []byte("stamped")}},
		&PeerMsg{Epoch: 3, Group: 1, Msg: &Accept{View: 7, ID: 44}},
		&PeerMsg{Epoch: 1, Msg: &Heartbeat{View: 7, DecidedUpTo: 43, LeaseMS: 250, LeaseSeq: 9}},
		// The reconfiguration vocabulary, topology holes included.
		&TopoUpdate{Topo: Topology{Epoch: 3, BaseView: 12, Groups: 2,
			Peers: []string{"a:1", "", "c:3", "d:4"}, Clients: []string{"a:9", "", "c:9", "d:9"}}},
		&Reconfig{ClientID: 0xbeef, Seq: 5, Remove: -1, PeerAddr: "d:4", ClientAddr: "d:9"},
		&Reconfig{ClientID: 0xbeef, Seq: 6, Remove: 2},
	}
	for _, m := range seeds {
		b := Marshal(m)
		f.Add(b)
		if len(b) > 3 {
			f.Add(b[:len(b)-3]) // truncated
		}
		corrupt := append([]byte(nil), b...)
		corrupt[0] ^= 0xFF // unknown/confused type tag
		f.Add(corrupt)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(TPeerMsg), 1, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}) // truncated peer header

	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := Unmarshal(frame)
		if err != nil {
			return // malformed input rejected: fine
		}
		// Canonical fixed point: re-encoding a decoded message and decoding
		// it again must converge (non-canonical inputs — bool bytes other
		// than 0/1, redundant snapshot metadata — canonicalize in one step).
		enc := Marshal(m)
		if Size(m) != len(enc) {
			t.Fatalf("Size = %d, encoded length = %d", Size(m), len(enc))
		}
		m2, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("canonical re-encode failed to decode: %v\nframe %x\nenc   %x", err, frame, enc)
		}
		enc2 := Marshal(m2)
		if !bytes.Equal(enc2, enc) {
			t.Fatalf("canonical encoding is not a fixed point:\n enc  %x\n enc2 %x", enc, enc2)
		}
		// Borrow rule: m2 borrows from enc; Retain must fully sever it, so
		// rewriting enc — the lifecycle of a recycled frame buffer — must
		// not change the retained message.
		Retain(m2)
		for i := range enc {
			enc[i] = 0xA5
		}
		if enc3 := Marshal(m2); !bytes.Equal(enc3, enc2) {
			t.Fatalf("retained message changed after frame rewrite:\n before %x\n after  %x", enc2, enc3)
		}
		Release(m)
		Release(m2)
	})
}

// FuzzUnmarshalPeerRoundTrip is FuzzUnmarshalRoundTrip for peer frames: a
// frame that decodes must re-encode, header included, to a canonical fixed
// point whose length Size predicts, and the retained message must survive
// the frame being rewritten. Malformed headers — truncated, nested, missing
// — must error without panicking.
func FuzzUnmarshalPeerRoundTrip(f *testing.F) {
	for i, m := range []Message{
		&Propose{View: 7, ID: 44, DecidedUpTo: 41, Value: []byte("stamped")},
		&Accept{View: 7, ID: 44},
		&Heartbeat{View: 7, DecidedUpTo: 43, LeaseMS: 250, LeaseSeq: 9},
		&PrepareOK{View: 7, Entries: []InstanceState{{ID: 42, AcceptedView: 3, Decided: true, Value: []byte("abc")}}},
		&CatchUpResp{Entries: []DecidedValue{{ID: 10, Value: []byte("x")}}},
		&SnapshotChunk{Cut: 9, Offset: 1 << 20, Total: 1 << 30, OK: true, Data: []byte("chunk-data")},
		&LeaseAck{View: 7, Seq: 9},
		&ReadIndexResp{Seq: 4, Index: 99, OK: true},
		&TopoUpdate{Topo: Topology{Epoch: 3, BaseView: 12, Groups: 2, Peers: []string{"a:1", "", "c:3"}}},
		&PeerMsg{Epoch: 1, Msg: &Accept{View: 7, ID: 44}}, // nested: must be rejected
	} {
		b := Marshal(&PeerMsg{Epoch: int64(i % 4), Group: int32(i % 3), Msg: m})
		f.Add(b)
		f.Add(b[:peerHeaderSize-1])
		f.Add(b[:len(b)-1])
		f.Add(b[peerHeaderSize:]) // the bare message, no header
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, frame []byte) {
		epoch, group, m, err := UnmarshalPeer(frame)
		if err != nil {
			return
		}
		env := &PeerMsg{Epoch: epoch, Group: group, Msg: m}
		enc := Marshal(env)
		if Size(env) != len(enc) {
			t.Fatalf("Size = %d, encoded length = %d", Size(env), len(enc))
		}
		e2, g2, m2, err := UnmarshalPeer(enc)
		if err != nil {
			t.Fatalf("canonical re-encode failed to decode: %v\nframe %x\nenc   %x", err, frame, enc)
		}
		if e2 != epoch || g2 != group {
			t.Fatalf("header (%d, %d) re-decoded as (%d, %d)", epoch, group, e2, g2)
		}
		env2 := &PeerMsg{Epoch: e2, Group: g2, Msg: m2}
		enc2 := Marshal(env2)
		if !bytes.Equal(enc2, enc) {
			t.Fatalf("canonical encoding is not a fixed point:\n enc  %x\n enc2 %x", enc, enc2)
		}
		Retain(m2)
		for i := range enc {
			enc[i] = 0xA5
		}
		if enc3 := Marshal(env2); !bytes.Equal(enc3, enc2) {
			t.Fatalf("retained message changed after frame rewrite:\n before %x\n after  %x", enc2, enc3)
		}
		Release(m)
		Release(m2)
	})
}
