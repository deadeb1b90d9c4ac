package wire

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"
	"testing/quick"
)

// allMessages returns one populated instance of every message type.
func allMessages() []Message {
	return []Message{
		&Hello{ID: 2},
		&Prepare{View: 7, FirstUnstable: 42},
		&PrepareOK{View: 7, Entries: []InstanceState{
			{ID: 42, AcceptedView: 3, Decided: true, Value: []byte("abc")},
			{ID: 43, AcceptedView: 6, Decided: false, Value: nil},
		}},
		&Propose{View: 7, ID: 44, DecidedUpTo: 41, Value: []byte{1, 2, 3, 4}},
		&Accept{View: 7, ID: 44},
		&Heartbeat{View: 7, DecidedUpTo: 43},
		&CatchUpQuery{From: 10, To: 20},
		&CatchUpResp{Entries: []DecidedValue{{ID: 10, Value: []byte("x")}}},
		&CatchUpResp{HasSnapshot: true, Meta: SnapshotMeta{
			LastIncluded: 9, Groups: 2, TotalBytes: 123456}},
		&SnapshotChunkReq{Cut: 9, Offset: 4096, MaxBytes: 1024},
		&SnapshotChunk{Cut: 9, Offset: 4096, Total: 123456, OK: true, Data: []byte("image-bytes")},
		&SnapshotChunk{Cut: 9, OK: false},
		&ClientRequest{ClientID: 0xdeadbeef, Seq: 17, Payload: []byte("hello")},
		&ClientReply{ClientID: 0xdeadbeef, Seq: 17, OK: true, Redirect: NoRedirect, Payload: []byte("ok")},
		&ClientReply{ClientID: 1, Seq: 2, OK: false, Redirect: 2},
	}
}

// normalize maps empty slices to nil so reflect.DeepEqual treats a
// round-tripped empty value as equal to the original.
func normalize(m Message) Message {
	switch v := m.(type) {
	case *PrepareOK:
		for i := range v.Entries {
			if len(v.Entries[i].Value) == 0 {
				v.Entries[i].Value = nil
			}
		}
		if len(v.Entries) == 0 {
			v.Entries = nil
		}
	case *CatchUpResp:
		for i := range v.Entries {
			if len(v.Entries[i].Value) == 0 {
				v.Entries[i].Value = nil
			}
		}
		if len(v.Entries) == 0 {
			v.Entries = nil
		}
	case *SnapshotChunk:
		if len(v.Data) == 0 {
			v.Data = nil
		}
	case *Propose:
		if len(v.Value) == 0 {
			v.Value = nil
		}
	case *ClientRequest:
		if len(v.Payload) == 0 {
			v.Payload = nil
		}
	case *ClientReply:
		if len(v.Payload) == 0 {
			v.Payload = nil
		}
	}
	return m
}

func TestMarshalRoundTrip(t *testing.T) {
	for _, m := range allMessages() {
		b := Marshal(m)
		got, err := Unmarshal(b)
		if err != nil {
			t.Errorf("Unmarshal(%s): %v", m.Type(), err)
			continue
		}
		if !reflect.DeepEqual(normalize(got), normalize(m)) {
			t.Errorf("round trip %s:\n got %+v\nwant %+v", m.Type(), got, m)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	tests := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrShortBuffer},
		{"unknown type", []byte{0xff}, ErrUnknownType},
		{"truncated prepare", []byte{byte(TPrepare), 1, 2}, ErrShortBuffer},
		{"trailing bytes", append(Marshal(&Accept{View: 1, ID: 2}), 0xAB), ErrTrailingData},
		{"huge entry count", append(Marshal(&PrepareOK{View: 1})[:5], 0xff, 0xff, 0xff, 0xff), ErrShortBuffer},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Unmarshal(tt.b)
			if !errors.Is(err, tt.want) {
				t.Errorf("Unmarshal = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestUnmarshalTruncationNeverPanics(t *testing.T) {
	for _, m := range allMessages() {
		b := Marshal(m)
		for i := range b {
			if _, err := Unmarshal(b[:i]); err == nil {
				t.Errorf("%s truncated to %d bytes decoded without error", m.Type(), i)
			}
		}
	}
}

// TestUnmarshalBorrowsAndRetainSevers pins the ownership contract: a decoded
// message borrows from the frame; Retain copies it out so it survives the
// frame being recycled and rewritten.
func TestUnmarshalBorrowsAndRetainSevers(t *testing.T) {
	b := Marshal(&ClientRequest{ClientID: 1, Seq: 1, Payload: []byte("orig")})
	m, err := Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	req := m.(*ClientRequest)
	if len(req.Payload) > 0 && &req.Payload[0] != &b[len(b)-len(req.Payload)] {
		t.Error("Unmarshal copied the payload; the zero-copy contract is to borrow")
	}
	Retain(m)
	for i := range b {
		b[i] = 0xFF
	}
	if string(req.Payload) != "orig" {
		t.Errorf("retained payload did not survive frame rewrite: %q", req.Payload)
	}
}

// TestRetainSeversAllTypes rewrites the frame under every value-carrying
// message type and checks the retained copy is unaffected.
func TestRetainSeversAllTypes(t *testing.T) {
	for _, m := range allMessages() {
		b := Marshal(m)
		got, err := Unmarshal(b)
		if err != nil {
			t.Fatalf("%s: %v", m.Type(), err)
		}
		Retain(got)
		for i := range b {
			b[i] = 0xFF
		}
		if !reflect.DeepEqual(normalize(got), normalize(m)) {
			t.Errorf("%s: retained message corrupted by frame rewrite:\n got %+v\nwant %+v",
				m.Type(), got, m)
		}
	}
}

// TestAppendMessageMatchesMarshalAndSize pins append-style encoding:
// AppendMessage extends dst in place, produces exactly Marshal's bytes, and
// Size predicts the encoded length exactly.
func TestAppendMessageMatchesMarshalAndSize(t *testing.T) {
	msgs := allMessages()
	msgs = append(msgs,
		&PeerMsg{Epoch: 3, Group: 2, Msg: &Propose{View: 1, ID: 3, DecidedUpTo: 2, Value: []byte("vv")}},
		&PeerMsg{Group: 7, Msg: &Accept{View: 1, ID: 3}},
	)
	for _, m := range msgs {
		want := Marshal(m)
		if got := Size(m); got != len(want) {
			t.Errorf("%s: Size = %d, encoded length = %d", m.Type(), got, len(want))
		}
		prefix := []byte("prefix")
		got := AppendMessage(append([]byte(nil), prefix...), m)
		if !bytes.Equal(got[:len(prefix)], prefix) {
			t.Fatalf("%s: AppendMessage clobbered dst prefix", m.Type())
		}
		if !bytes.Equal(got[len(prefix):], want) {
			t.Errorf("%s: AppendMessage bytes differ from Marshal", m.Type())
		}
	}
}

// TestReleaseAndReuse checks the pool round trip: a released struct serves a
// later decode without corrupting earlier retained state.
func TestReleaseAndReuse(t *testing.T) {
	b1 := Marshal(&Propose{View: 1, ID: 1, Value: []byte("one")})
	m1, err := Unmarshal(b1)
	if err != nil {
		t.Fatal(err)
	}
	Retain(m1)
	p1 := m1.(*Propose)
	val := p1.Value
	Release(m1)
	// The pool may hand the same struct to the next decode; the retained
	// value buffer must be untouched.
	b2 := Marshal(&Propose{View: 2, ID: 2, Value: []byte("two")})
	m2, err := Unmarshal(b2)
	if err != nil {
		t.Fatal(err)
	}
	if string(val) != "one" {
		t.Errorf("retained value corrupted after Release+reuse: %q", val)
	}
	Release(m2)
}

// TestDecodeBatchIntoReusesStorage checks the steady-state decode loop:
// slice capacity is reused and released structs cycle through the pool.
func TestDecodeBatchIntoReusesStorage(t *testing.T) {
	batch := EncodeBatch([]*ClientRequest{
		{ClientID: 1, Seq: 1, Payload: []byte("a")},
		{ClientID: 2, Seq: 2, Payload: []byte("bb")},
	})
	var reqs []*ClientRequest
	for range 3 {
		var err error
		reqs, err = DecodeBatchInto(reqs, batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(reqs) != 2 || reqs[0].ClientID != 1 || string(reqs[1].Payload) != "bb" {
			t.Fatalf("decode = %+v", reqs)
		}
		for _, r := range reqs {
			Release(r)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	tests := []struct {
		name string
		reqs []*ClientRequest
	}{
		{"empty", nil},
		{"one", []*ClientRequest{{ClientID: 1, Seq: 2, Payload: []byte("a")}}},
		{"several", []*ClientRequest{
			{ClientID: 1, Seq: 1, Payload: bytes.Repeat([]byte("x"), 128)},
			{ClientID: 2, Seq: 9, Payload: nil},
			{ClientID: 3, Seq: 100, Payload: []byte{0}},
		}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			b := EncodeBatch(tt.reqs)
			got, err := DecodeBatch(b)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tt.reqs) {
				t.Fatalf("decoded %d requests, want %d", len(got), len(tt.reqs))
			}
			for i := range got {
				if got[i].ClientID != tt.reqs[i].ClientID || got[i].Seq != tt.reqs[i].Seq ||
					!bytes.Equal(got[i].Payload, tt.reqs[i].Payload) {
					t.Errorf("request %d = %+v, want %+v", i, got[i], tt.reqs[i])
				}
			}
		})
	}
}

func TestDecodeBatchErrors(t *testing.T) {
	if _, err := DecodeBatch(nil); err == nil {
		t.Error("DecodeBatch(nil) succeeded")
	}
	if _, err := DecodeBatch([]byte{0xff, 0xff, 0xff, 0xff}); err == nil {
		t.Error("DecodeBatch with huge count succeeded")
	}
	b := EncodeBatch([]*ClientRequest{{ClientID: 1, Seq: 1}})
	if _, err := DecodeBatch(append(b, 1)); !errors.Is(err, ErrTrailingData) {
		t.Errorf("trailing data err = %v, want ErrTrailingData", err)
	}
}

func TestEncodedRequestSize(t *testing.T) {
	reqs := []*ClientRequest{{ClientID: 1, Seq: 1, Payload: make([]byte, 128)}}
	want := BatchOverhead + EncodedRequestSize(128)
	if got := len(EncodeBatch(reqs)); got != want {
		t.Errorf("encoded batch size = %d, want %d", got, want)
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{[]byte("first"), {}, bytes.Repeat([]byte("z"), 10000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("frame = %q, want %q", got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Errorf("ReadFrame on empty = %v, want EOF", err)
	}
}

func TestReadFrameRejectsHugeLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xff, 0xff, 0xff, 0xff})
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrFrameTooBig) {
		t.Errorf("ReadFrame = %v, want ErrFrameTooBig", err)
	}
	if err := WriteFrame(io.Discard, make([]byte, MaxFrameSize+1)); !errors.Is(err, ErrFrameTooBig) {
		t.Errorf("WriteFrame = %v, want ErrFrameTooBig", err)
	}
}

func TestReadFrameTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	trunc := bytes.NewReader(buf.Bytes()[:buf.Len()-2])
	if _, err := ReadFrame(trunc); err == nil {
		t.Error("ReadFrame on truncated payload succeeded")
	}
}

// TestPropertyClientRequestRoundTrip property-tests the codec on arbitrary
// client requests.
func TestPropertyClientRequestRoundTrip(t *testing.T) {
	f := func(id, seq uint64, payload []byte) bool {
		m := &ClientRequest{ClientID: id, Seq: seq, Payload: payload}
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			return false
		}
		r, ok := got.(*ClientRequest)
		return ok && r.ClientID == id && r.Seq == seq && bytes.Equal(r.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyBatchRoundTrip property-tests batch encoding on arbitrary
// request sets.
func TestPropertyBatchRoundTrip(t *testing.T) {
	f := func(ids []uint64, payload []byte) bool {
		reqs := make([]*ClientRequest, len(ids))
		for i, id := range ids {
			reqs[i] = &ClientRequest{ClientID: id, Seq: uint64(i), Payload: payload}
		}
		got, err := DecodeBatch(EncodeBatch(reqs))
		if err != nil || len(got) != len(reqs) {
			return false
		}
		for i := range got {
			if got[i].ClientID != reqs[i].ClientID || got[i].Seq != reqs[i].Seq ||
				!bytes.Equal(got[i].Payload, reqs[i].Payload) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertyProposeRoundTrip property-tests Propose with arbitrary fields,
// the hottest message on the wire.
func TestPropertyProposeRoundTrip(t *testing.T) {
	f := func(view int32, id, upto int64, val []byte) bool {
		m := &Propose{View: View(view), ID: InstanceID(id), DecidedUpTo: InstanceID(upto), Value: val}
		got, err := Unmarshal(Marshal(m))
		if err != nil {
			return false
		}
		p, ok := got.(*Propose)
		return ok && p.View == m.View && p.ID == m.ID && p.DecidedUpTo == m.DecidedUpTo &&
			bytes.Equal(p.Value, m.Value)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestPropertyUnmarshalRandomBytesNeverPanics fuzzes the decoder with random
// byte strings; any outcome but a panic is acceptable.
func TestPropertyUnmarshalRandomBytesNeverPanics(t *testing.T) {
	f := func(b []byte) bool {
		_, _ = Unmarshal(b)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestPeerMsgRoundTrip checks the peer-frame header: epoch and group come
// back from UnmarshalPeer with the bare message, and the header is exactly
// peerHeaderSize bytes in front of the message's own encoding.
func TestPeerMsgRoundTrip(t *testing.T) {
	for _, epoch := range []int64{0, 3} {
		for _, group := range []int32{0, 3} {
			for _, inner := range []Message{
				&Propose{View: 3, ID: 9, DecidedUpTo: 8, Value: []byte("batch")},
				&Accept{View: 3, ID: 9},
				&Heartbeat{View: 1, DecidedUpTo: 4},
				&CatchUpQuery{From: 1, To: 5},
				&TopoUpdate{Topo: Topology{Epoch: epoch, Groups: 4, Peers: []string{"a:1", "", "c:3"}, Clients: []string{}}},
			} {
				frame := Marshal(&PeerMsg{Epoch: epoch, Group: group, Msg: inner})
				if len(frame) != peerHeaderSize+Size(inner) ||
					!bytes.Equal(frame[peerHeaderSize:], Marshal(inner)) {
					t.Fatalf("%T at epoch %d group %d: frame %x is not header + message", inner, epoch, group, frame)
				}
				e, g, got, err := UnmarshalPeer(frame)
				if err != nil {
					t.Fatalf("%T at epoch %d group %d: %v", inner, epoch, group, err)
				}
				if e != epoch || g != group {
					t.Errorf("%T: header = (%d, %d), want (%d, %d)", inner, e, g, epoch, group)
				}
				if !reflect.DeepEqual(normalize(got), normalize(inner)) {
					t.Errorf("%T round trip = %#v, want %#v", inner, got, inner)
				}
			}
		}
	}
}

// TestUnmarshalPeerRejects covers the malformed peer frames: each is an
// error, never a message, and a peer frame is never a bare one.
func TestUnmarshalPeerRejects(t *testing.T) {
	frame := Marshal(&PeerMsg{Epoch: 2, Group: 1, Msg: &Accept{View: 1, ID: 2}})
	nested := Marshal(&PeerMsg{Epoch: 2, Msg: &PeerMsg{Epoch: 2, Group: 1, Msg: &Accept{}}})
	retiredTag := append([]byte{byte(TSnapshotChunk) + 1}, frame[1:]...) // the old epoch envelope's tag
	tests := []struct {
		name string
		b    []byte
		want error
	}{
		{"empty", nil, ErrShortBuffer},
		{"truncated header", frame[:peerHeaderSize-1], ErrShortBuffer},
		{"header only", frame[:peerHeaderSize], ErrShortBuffer},
		{"truncated message", frame[:len(frame)-1], ErrShortBuffer},
		{"trailing bytes", append(append([]byte(nil), frame...), 0xAB), ErrTrailingData},
		{"nested header", nested, ErrUnknownType},
		{"retired epoch-envelope tag", retiredTag, ErrUnknownType},
		{"bare frame", Marshal(&Accept{View: 1, ID: 2}), ErrUnknownType},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, _, m, err := UnmarshalPeer(tt.b); !errors.Is(err, tt.want) || m != nil {
				t.Errorf("UnmarshalPeer = (%v, %v), want error %v", m, err, tt.want)
			}
		})
	}
	if _, err := Unmarshal(frame); !errors.Is(err, ErrUnknownType) {
		t.Errorf("Unmarshal of a peer frame = %v, want %v", err, ErrUnknownType)
	}
}

func TestSnapshotMetaEncoding(t *testing.T) {
	// A snapshot-bearing catch-up response carries only metadata — its size
	// is independent of the state size it describes.
	small := &CatchUpResp{HasSnapshot: true, Meta: SnapshotMeta{LastIncluded: 9, TotalBytes: 64}}
	huge := &CatchUpResp{HasSnapshot: true, Meta: SnapshotMeta{LastIncluded: 9, TotalBytes: 64 << 30}}
	if Size(small) != Size(huge) {
		t.Errorf("meta size varies with TotalBytes: %d vs %d", Size(small), Size(huge))
	}
	multi := &CatchUpResp{HasSnapshot: true, Meta: SnapshotMeta{
		LastIncluded: 41, Groups: 4, TotalBytes: 12345}}
	got, err := Unmarshal(Marshal(multi))
	if err != nil {
		t.Fatal(err)
	}
	if resp := got.(*CatchUpResp); resp.Meta != multi.Meta {
		t.Errorf("Meta = %+v after round trip, want %+v", resp.Meta, multi.Meta)
	}
	if (SnapshotMeta{Groups: 0}).GroupCount() != 1 || (SnapshotMeta{Groups: 4}).GroupCount() != 4 {
		t.Error("SnapshotMeta.GroupCount normalization broken")
	}
}

func TestSnapshotChunkRoundTrip(t *testing.T) {
	// The transfer frames must round-trip exactly and respect borrow
	// semantics: a Retained chunk survives frame reuse.
	frame := Marshal(&SnapshotChunk{Cut: 77, Offset: 8192, Total: 1 << 20, OK: true,
		Data: bytes.Repeat([]byte{0xAB}, 512)})
	m, err := Unmarshal(frame)
	if err != nil {
		t.Fatal(err)
	}
	c := m.(*SnapshotChunk)
	if c.Cut != 77 || c.Offset != 8192 || c.Total != 1<<20 || !c.OK || len(c.Data) != 512 {
		t.Fatalf("round trip = %+v", c)
	}
	Retain(c)
	for i := range frame {
		frame[i] = 0
	}
	if c.Data[0] != 0xAB {
		t.Fatal("Retain did not sever the chunk's alias to the frame")
	}
	Release(c)
}

func TestGroupCut(t *testing.T) {
	// Single group: the classic cut.
	for _, last := range []InstanceID{-1, 0, 5, 100} {
		if got := GroupCut(last, 1, 0); got != last+1 {
			t.Errorf("GroupCut(%d,1,0) = %d, want %d", last, got, last+1)
		}
	}
	// Multi-group: GroupCut(M, G, g) counts merged indices m <= M with
	// m % G == g. Check against direct enumeration.
	for _, groups := range []int{2, 3, 4} {
		for last := InstanceID(-1); last < 40; last++ {
			for g := 0; g < groups; g++ {
				want := InstanceID(0)
				for m := InstanceID(0); m <= last; m++ {
					if int(m)%groups == g {
						want++
					}
				}
				if got := GroupCut(last, groups, g); got != want {
					t.Fatalf("GroupCut(%d,%d,%d) = %d, want %d", last, groups, g, got, want)
				}
			}
		}
	}
	// The cuts of all groups partition the merged prefix exactly.
	for _, groups := range []int{2, 4, 7} {
		for _, last := range []InstanceID{0, 13, 999} {
			var sum InstanceID
			for g := 0; g < groups; g++ {
				sum += GroupCut(last, groups, g)
			}
			if sum != last+1 {
				t.Errorf("cuts for M=%d G=%d sum to %d, want %d", last, groups, sum, last+1)
			}
		}
	}
}

// BenchmarkCodecAppendPeerMsg measures the peer-frame encode: the header
// and the message after it, inline (no nested Marshal and copy).
func BenchmarkCodecAppendPeerMsg(b *testing.B) {
	msg := &PeerMsg{Epoch: 3, Group: 2,
		Msg: &Propose{View: 3, ID: 42, DecidedUpTo: 41, Value: make([]byte, 1300)}}
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	for b.Loop() {
		buf = AppendMessage(buf[:0], msg)
	}
}

// BenchmarkCodecDecodeBatchInto is the deliver path: a decided batch decoded
// into reused storage, requests released after "execution".
func BenchmarkCodecDecodeBatchInto(b *testing.B) {
	value := EncodeBatch([]*ClientRequest{
		{ClientID: 1, Seq: 1, Payload: make([]byte, 128)},
		{ClientID: 2, Seq: 2, Payload: make([]byte, 128)},
		{ClientID: 3, Seq: 3, Payload: make([]byte, 128)},
	})
	var reqs []*ClientRequest
	b.ReportAllocs()
	for b.Loop() {
		var err error
		reqs, err = DecodeBatchInto(reqs, value)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range reqs {
			Release(r)
		}
	}
}
