// Package wire defines the messages exchanged by replicas and clients and a
// compact binary codec for them (encoding/binary, little-endian).
//
// The protocol is the MultiPaxos variant the paper builds on (Sec. III-A with
// the batching and pipelining optimizations of [12]): views number leadership
// epochs (the leader of view v is the (v mod n)-th active replica of the
// topology, see Topology.Leader), Phase 1 runs once per
// view over the unstable log suffix, and Phase 2 runs per instance, each
// instance carrying one *batch* of client requests. Followers send Phase 2b
// acknowledgements only to the leader (matching the packet accounting of
// Table III); they learn decisions through the DecidedUpTo watermark
// piggybacked on Propose and Heartbeat messages, and fetch anything they
// missed with the catch-up messages.
//
// # Frames
//
// Client frames and the Hello that opens a replica connection are bare: the
// type tag, then the body. Every later replica↔replica frame carries one
// fixed PeerMsg header — tag, sender epoch, ordering group — followed by the
// bare message, and is decoded with UnmarshalPeer. Headers never nest.
//
// # Buffer ownership (the zero-copy contract)
//
// The codec is built for an allocation-free steady state, which makes buffer
// ownership explicit at every boundary the bytes cross:
//
//   - AppendMessage encodes into a caller-supplied buffer (append-style);
//     Marshal is a convenience wrapper that allocates an exact-size buffer.
//   - Unmarshal BORROWS: every []byte field of the returned message aliases
//     the input frame, and the message struct itself may come from an
//     internal pool. The message is valid only while the frame is: a caller
//     that retains the message (or any of its byte fields) past the point
//     where the frame is recycled or rewritten must call Retain first.
//   - Retain(m) copies every borrowed byte field of m into fresh memory, in
//     place, severing all aliases to the frame.
//   - Release(m) hands the struct of a hot-path message back to its pool.
//     Only the sole owner may call it, and never twice; the byte buffers the
//     fields point at are NOT recycled (they may be shared — Release only
//     zeroes the struct). Releasing is optional: an unreleased message is
//     simply garbage collected.
//
// The replica pipeline applies the rule as: readers Retain value-carrying
// messages and recycle the frame immediately; the long-term retainers
// (storage.Log entries, the reply cache, snapshot stores) therefore always
// hold owned, immutable memory and never a transport buffer.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// View numbers leadership epochs. Topology.Leader maps a view to its leader.
type View int32

// InstanceID identifies one consensus instance (one slot of the replicated
// log; each slot holds a batch).
type InstanceID int64

// MsgType discriminates messages on the wire.
type MsgType uint8

// Message type tags.
const (
	THello MsgType = iota + 1
	TPrepare
	TPrepareOK
	TPropose
	TAccept
	THeartbeat
	TCatchUpQuery
	TCatchUpResp
	TClientRequest
	TClientReply
	TPeerMsg
	TLeaseAck
	TReadIndexQuery
	TReadIndexResp
	TClientRead
	TSnapshotChunkReq
	TSnapshotChunk
	_ // retired tag value; kept so the tags after it keep theirs
	TTopoUpdate
	TReconfig
)

// String returns the message type name.
func (t MsgType) String() string {
	switch t {
	case THello:
		return "Hello"
	case TPrepare:
		return "Prepare"
	case TPrepareOK:
		return "PrepareOK"
	case TPropose:
		return "Propose"
	case TAccept:
		return "Accept"
	case THeartbeat:
		return "Heartbeat"
	case TCatchUpQuery:
		return "CatchUpQuery"
	case TCatchUpResp:
		return "CatchUpResp"
	case TClientRequest:
		return "ClientRequest"
	case TClientReply:
		return "ClientReply"
	case TPeerMsg:
		return "PeerMsg"
	case TLeaseAck:
		return "LeaseAck"
	case TReadIndexQuery:
		return "ReadIndexQuery"
	case TReadIndexResp:
		return "ReadIndexResp"
	case TClientRead:
		return "ClientRead"
	case TSnapshotChunkReq:
		return "SnapshotChunkReq"
	case TSnapshotChunk:
		return "SnapshotChunk"
	case TTopoUpdate:
		return "TopoUpdate"
	case TReconfig:
		return "Reconfig"
	default:
		return fmt.Sprintf("MsgType(%d)", uint8(t))
	}
}

// Message is implemented by every wire message.
type Message interface {
	Type() MsgType
}

// Hello is the first frame on a freshly established replica connection,
// identifying the sender.
type Hello struct {
	ID int32
}

// Type implements Message.
func (*Hello) Type() MsgType { return THello }

// Prepare is Phase 1a: a replica that believes itself leader of View asks
// the others for their accepted state from FirstUnstable onward.
type Prepare struct {
	View          View
	FirstUnstable InstanceID
}

// Type implements Message.
func (*Prepare) Type() MsgType { return TPrepare }

// InstanceState carries one log slot's acceptor state inside PrepareOK.
type InstanceState struct {
	ID           InstanceID
	AcceptedView View
	Decided      bool
	Value        []byte
}

// PrepareOK is Phase 1b: the acceptor's promise for View together with every
// instance it has accepted or decided at or above the leader's FirstUnstable.
type PrepareOK struct {
	View    View
	Entries []InstanceState
}

// Type implements Message.
func (*PrepareOK) Type() MsgType { return TPrepareOK }

// Propose is Phase 2a: the leader of View proposes Value (a batch) for
// instance ID. DecidedUpTo piggybacks the leader's decision watermark: every
// instance below it is decided, letting followers learn decisions without
// extra messages.
type Propose struct {
	View        View
	ID          InstanceID
	DecidedUpTo InstanceID
	Value       []byte
}

// Type implements Message.
func (*Propose) Type() MsgType { return TPropose }

// Accept is Phase 2b, sent only to the leader (Sec. VI-D3: "replicas send a
// single Phase 2b message to the leader in response to each batch").
type Accept struct {
	View View
	ID   InstanceID
}

// Type implements Message.
func (*Accept) Type() MsgType { return TAccept }

// Heartbeat is sent by the leader when idle; it drives the failure detector
// and carries the decision watermark so followers keep learning decisions
// even without new proposals.
//
// When leader leases are enabled, group-0 heartbeats double as lease grants:
// LeaseMS is the lease duration in milliseconds and LeaseSeq numbers the
// grant round the follower acknowledges with a LeaseAck. Both fields are
// always encoded; LeaseMS 0 means the heartbeat grants no lease.
type Heartbeat struct {
	View        View
	DecidedUpTo InstanceID
	LeaseMS     uint32
	LeaseSeq    uint64
}

// Type implements Message.
func (*Heartbeat) Type() MsgType { return THeartbeat }

// LeaseAck acknowledges a lease grant carried on a Heartbeat: the follower
// promises not to suspect (or help depose) the leader of View until its
// local lease timer — started at the grant's receipt — expires. Seq echoes
// the grant round so the leader can compute the quorum's ack coverage
// against its own send timestamps, which keeps the expiry arithmetic
// one-clock-local on each side (only bounded clock RATE skew is assumed,
// never synchronized clocks).
type LeaseAck struct {
	View View
	Seq  uint64
}

// Type implements Message.
func (*LeaseAck) Type() MsgType { return TLeaseAck }

// ReadIndexQuery asks the lease-holding leader for its current merged-order
// read index. It carries no values — the answer is one integer — which is
// what makes follower reads cheap: the follower waits locally until its own
// executor passes the returned index. Seq matches queries to responses on
// the asking replica.
type ReadIndexQuery struct {
	Seq uint64
}

// Type implements Message.
func (*ReadIndexQuery) Type() MsgType { return TReadIndexQuery }

// ReadIndexResp answers a ReadIndexQuery. OK is false when the responder is
// not a valid leaseholder (not leader, or its lease lapsed); the asker then
// falls back to ordering its reads through the log.
type ReadIndexResp struct {
	Seq   uint64
	Index InstanceID // merged index the asker must apply through before reading
	OK    bool
}

// Type implements Message.
func (*ReadIndexResp) Type() MsgType { return TReadIndexResp }

// ClientRead is a client read-only command addressed to the local read path:
// it never enters the ordering pipeline. Consistency selects the guarantee
// (see the gosmr.ReadConsistency constants); Seq gives reads their own
// at-most-once-free numbering — reads are never retried through the reply
// cache, a failed read simply falls back to an ordered ClientRequest.
// ClientRead.Consistency values (mirrored by gosmr.ReadConsistency).
const (
	// ReadLinearizable observes every write acknowledged before the read
	// started (lease check on the leader, read-index round on a follower).
	ReadLinearizable uint8 = 0
	// ReadStable reads whatever state the local replica has applied — no
	// coordination, no staleness bound.
	ReadStable uint8 = 1
)

type ClientRead struct {
	ClientID    uint64
	Seq         uint64
	Consistency uint8
	Payload     []byte
}

// Type implements Message.
func (*ClientRead) Type() MsgType { return TClientRead }

// CatchUpQuery asks a peer for the decided values of instances in
// [From, To). Sent by a replica that has learned instances are decided but
// is missing their values (Sec. III-C's catch-up/state-transfer service).
//
// The responder is free to answer with any prefix of the range: responses
// are capped (entries and bytes — see paxos.DefaultCatchUpMaxEntries), so a
// wide gap is paginated across several query/response rounds. The requester
// re-queries from its first still-missing instance whenever a response made
// progress, and otherwise falls back to its catch-up timer — which is what
// keeps pagination live without letting a useless response trigger a
// query/response ping-pong.
type CatchUpQuery struct {
	From InstanceID
	To   InstanceID
}

// Type implements Message.
func (*CatchUpQuery) Type() MsgType { return TCatchUpQuery }

// DecidedValue is one decided instance inside CatchUpResp.
type DecidedValue struct {
	ID    InstanceID
	Value []byte
}

// SnapshotMeta describes an available snapshot without carrying its state:
// the catch-up answer when the responder has truncated the log below the
// requested range. The requester pulls the snapshot's manifest and then its
// chunks with SnapshotChunkReq/SnapshotChunk rounds, then installs it.
type SnapshotMeta struct {
	LastIncluded InstanceID
	Groups       int32
}

// GroupCount normalizes the meta's group count: 0 and 1 both mean
// single-group.
func (m SnapshotMeta) GroupCount() int {
	if m.Groups <= 1 {
		return 1
	}
	return int(m.Groups)
}

// GroupCut returns the first group-local instance of group g that is NOT
// covered by a snapshot through merged index lastIncluded, under the
// deterministic round-robin merge: merged index m holds group m%groups,
// group-local slot m/groups. Equivalently it is the number of group-g slots
// the merged prefix [0, lastIncluded] consumed. With groups <= 1 it reduces
// to lastIncluded+1, the classic single-log cut.
func GroupCut(lastIncluded InstanceID, groups, g int) InstanceID {
	if groups <= 1 {
		return lastIncluded + 1
	}
	m := int64(lastIncluded)
	if m < int64(g) {
		return 0
	}
	return InstanceID((m-int64(g))/int64(groups) + 1)
}

// ---------------------------------------------------------------------------
// Topology: the epoch-stamped cluster shape.

// Topology is the explicit, versioned cluster shape: which replica IDs
// exist, their inter-replica and client-facing addresses, and how many
// ordering groups partition the log. It replaces the boot-frozen
// len(Peers) arithmetic everywhere quorum or view math happens.
//
// Replica IDs are never reused: a removed replica leaves an empty-string
// hole in Peers, and an added replica always takes the next free slot at
// the end. Epochs advance by exactly one per reconfiguration, each step
// adding or removing a single replica, so the quorums of adjacent epochs
// always intersect — the invariant the reconfiguration safety argument
// rests on (see the README's Reconfiguration section).
//
// BaseView is the first view valid in this epoch: applying the topology
// advances every ordering group to at least BaseView, so the leader map of
// views below it (which the PREVIOUS epoch's shape may have assigned to a
// different replica) can never produce a second proposer for a ballot the
// new epoch uses.
type Topology struct {
	Epoch    int64
	BaseView View
	Groups   int32
	Peers    []string // inter-replica addresses, indexed by ID; "" = removed
	Clients  []string // client-facing addresses, parallel to Peers ("" = unknown)
}

// N returns the number of active replicas (non-hole slots).
func (t *Topology) N() int {
	n := 0
	for _, a := range t.Peers {
		if a != "" {
			n++
		}
	}
	return n
}

// Quorum returns the majority size of the active replica set.
func (t *Topology) Quorum() int { return t.N()/2 + 1 }

// Active reports whether replica id is a live member of this epoch.
func (t *Topology) Active(id int) bool {
	return id >= 0 && id < len(t.Peers) && t.Peers[id] != ""
}

// Leader returns the leader of view v: the (v mod N)-th active replica in
// ID order. For a hole-free topology this is exactly the classic v mod n.
// Allocation-free — it runs on the per-message leader-identity checks.
func (t *Topology) Leader(v View) int {
	n := t.N()
	if n == 0 {
		return 0
	}
	k := int(uint32(v)) % n
	for i, a := range t.Peers {
		if a != "" {
			if k == 0 {
				return i
			}
			k--
		}
	}
	return 0
}

// ClientAddr returns replica id's client-facing address ("" if unknown).
func (t *Topology) ClientAddr(id int) string {
	if id < 0 || id >= len(t.Clients) {
		return ""
	}
	return t.Clients[id]
}

// Clone returns a deep copy (the slices are freshly allocated).
func (t *Topology) Clone() *Topology {
	cp := *t
	cp.Peers = append([]string(nil), t.Peers...)
	cp.Clients = append([]string(nil), t.Clients...)
	return &cp
}

// GroupCount normalizes Groups exactly like SnapshotMeta.GroupCount.
func (t *Topology) GroupCount() int {
	if t.Groups <= 1 {
		return 1
	}
	return int(t.Groups)
}

// Validate checks structural invariants.
func (t *Topology) Validate() error {
	if t.Epoch < 0 {
		return fmt.Errorf("wire: topology epoch %d is negative", t.Epoch)
	}
	if t.N() == 0 {
		return fmt.Errorf("wire: topology epoch %d has no active replicas", t.Epoch)
	}
	if len(t.Clients) > len(t.Peers) {
		return fmt.Errorf("wire: topology epoch %d has %d client addrs for %d peer slots",
			t.Epoch, len(t.Clients), len(t.Peers))
	}
	return nil
}

// TopologySize returns the exact encoded size of t.
func TopologySize(t *Topology) int {
	n := 8 + 4 + 4 + 4 + 4
	for _, a := range t.Peers {
		n += 4 + len(a)
	}
	for _, a := range t.Clients {
		n += 4 + len(a)
	}
	return n
}

// AppendTopology appends t's encoding to dst. The same serialization is
// used on the wire (TopoUpdate), in the WAL (RecTopo values), and inside
// snapshot images and manifests — one format, one decoder.
func AppendTopology(dst []byte, t *Topology) []byte {
	a := appender{b: dst}
	a.i64(t.Epoch)
	a.i32(int32(t.BaseView))
	a.i32(t.Groups)
	a.u32(uint32(len(t.Peers)))
	for _, addr := range t.Peers {
		a.bytes([]byte(addr))
	}
	a.u32(uint32(len(t.Clients)))
	for _, addr := range t.Clients {
		a.bytes([]byte(addr))
	}
	return a.b
}

// EncodeTopology serializes t into a fresh exact-size buffer.
func EncodeTopology(t *Topology) []byte {
	return AppendTopology(make([]byte, 0, TopologySize(t)), t)
}

// decodeTopologyFrom parses one topology out of r (strings are copied —
// topologies are rare control data and long-lived, never frame-borrowed).
func decodeTopologyFrom(r *reader) (*Topology, error) {
	t := &Topology{
		Epoch:    r.i64(),
		BaseView: View(r.i32()),
		Groups:   r.i32(),
	}
	np := r.u32()
	if r.err != nil || np > r.len() {
		r.fail()
		return nil, r.err
	}
	t.Peers = make([]string, 0, np)
	for range np {
		t.Peers = append(t.Peers, string(r.bytes()))
	}
	nc := r.u32()
	if r.err != nil || nc > r.len() {
		r.fail()
		return nil, r.err
	}
	t.Clients = make([]string, 0, nc)
	for range nc {
		t.Clients = append(t.Clients, string(r.bytes()))
	}
	if r.err != nil {
		return nil, r.err
	}
	return t, nil
}

// DecodeTopology parses an EncodeTopology buffer.
func DecodeTopology(b []byte) (*Topology, error) {
	r := reader{b: b}
	t, err := decodeTopologyFrom(&r)
	if err != nil {
		return nil, err
	}
	if len(r.b) != 0 {
		return nil, ErrTrailingData
	}
	return t, nil
}

// TopoUpdate carries a committed topology to a peer or client whose epoch
// is stale: the "redirect carrying the new topology". Replicas send it in
// response to mismatched-epoch frames; clients receive it as a connection
// greeting and on every reconfiguration, and re-resolve their address list
// from it.
type TopoUpdate struct {
	Topo Topology
}

// Type implements Message.
func (*TopoUpdate) Type() MsgType { return TTopoUpdate }

// Reconfig is a client-path administrative request: add one replica
// (Remove < 0, PeerAddr/ClientAddr name the joiner) or remove one
// (Remove = its ID). The contacted replica must lead group 0; otherwise it
// answers with a redirect like any write. The success reply's payload is
// the committed new topology (EncodeTopology).
type Reconfig struct {
	ClientID   uint64
	Seq        uint64
	Remove     int32
	PeerAddr   string
	ClientAddr string
}

// Type implements Message.
func (*Reconfig) Type() MsgType { return TReconfig }

// ConfigClientID is the reserved client ID that marks a batch as a
// configuration command: a batch holding exactly one request with this
// client ID carries an encoded Topology instead of a service command, and
// the ServiceManager applies it instead of executing it. Real clients can
// never use ID 0 (gosmr.Dial ORs the low bit into random IDs and ClientIO
// rejects it), so the distinguished value can't collide.
const ConfigClientID uint64 = 0

// CatchUpResp answers a CatchUpQuery with decided values and, if neither
// the responder's in-memory log nor its WAL (the disk-backed catch-up tier)
// can serve the start of the range, the metadata of a snapshot the
// requester should pull instead (chunk by chunk — the state itself never
// rides inline). Entries may cover only a capped prefix of the queried
// range — the requester pages through the rest with follow-up queries (see
// CatchUpQuery).
type CatchUpResp struct {
	Entries     []DecidedValue
	HasSnapshot bool
	Meta        SnapshotMeta
}

// Type implements Message.
func (*CatchUpResp) Type() MsgType { return TCatchUpResp }

// SnapshotChunkReq asks a peer for one piece of the snapshot cut at Cut
// (its LastIncluded merged index): chunk Index in manifest order, or, with
// Manifest set, page Index of the encoded manifest (pages are the
// responder's SnapshotChunkBytes long; a manifest usually fits in page 0).
// The puller keeps a single request outstanding, which makes the pull
// self-clocked, and addresses chunks by index, which makes it resumable:
// a chunk already staged and matching its manifest entry is never asked
// for again.
type SnapshotChunkReq struct {
	Cut      InstanceID
	Manifest bool
	Index    int32
}

// Type implements Message.
func (*SnapshotChunkReq) Type() MsgType { return TSnapshotChunkReq }

// SnapshotChunk answers a SnapshotChunkReq with the chunk or manifest page
// it names. OK is false when the responder does not hold a snapshot at Cut
// (it moved on to a newer one) or the index is out of range; the puller
// then asks another peer. One frame carries one chunk — the snapshot never
// crosses the wire as a single unbounded unit.
type SnapshotChunk struct {
	Cut      InstanceID
	Manifest bool
	Index    int32
	OK       bool
	Data     []byte
}

// Type implements Message.
func (*SnapshotChunk) Type() MsgType { return TSnapshotChunk }

// ClientRequest is one client command. ClientID must be unique per client;
// Seq increases by one per request, giving at-most-once execution through
// the reply cache.
type ClientRequest struct {
	ClientID uint64
	Seq      uint64
	Payload  []byte
}

// Type implements Message.
func (*ClientRequest) Type() MsgType { return TClientRequest }

// NoRedirect in ClientReply.Redirect means the replica served the request.
const NoRedirect int32 = -1

// ClientReply answers a ClientRequest. If OK is false and Redirect is a
// replica ID, the client should retry at that replica (the current leader).
type ClientReply struct {
	ClientID uint64
	Seq      uint64
	OK       bool
	Redirect int32
	Payload  []byte
}

// Type implements Message.
func (*ClientReply) Type() MsgType { return TClientReply }

// PeerMsg is the fixed header of every replica↔replica frame after the
// Hello handshake: the sender's topology epoch and the ordering group Msg
// belongs to (0 for group-agnostic traffic), followed by Msg itself, which
// runs to the end of the frame. The reader checks the epoch before Msg is
// looked at — a mismatch drops the frame and answers with a TopoUpdate — and
// routes Msg by group. A PeerMsg never wraps another. Senders reuse one
// envelope; UnmarshalPeer returns Msg directly, so the envelope is never
// pooled, released or retained.
type PeerMsg struct {
	Epoch int64
	Group int32
	Msg   Message
}

// Type implements Message.
func (*PeerMsg) Type() MsgType { return TPeerMsg }

// Interface compliance checks.
var (
	_ Message = (*Hello)(nil)
	_ Message = (*Prepare)(nil)
	_ Message = (*PrepareOK)(nil)
	_ Message = (*Propose)(nil)
	_ Message = (*Accept)(nil)
	_ Message = (*Heartbeat)(nil)
	_ Message = (*CatchUpQuery)(nil)
	_ Message = (*CatchUpResp)(nil)
	_ Message = (*ClientRequest)(nil)
	_ Message = (*ClientReply)(nil)
	_ Message = (*PeerMsg)(nil)
	_ Message = (*LeaseAck)(nil)
	_ Message = (*ReadIndexQuery)(nil)
	_ Message = (*ReadIndexResp)(nil)
	_ Message = (*ClientRead)(nil)
	_ Message = (*SnapshotChunkReq)(nil)
	_ Message = (*SnapshotChunk)(nil)
	_ Message = (*TopoUpdate)(nil)
	_ Message = (*Reconfig)(nil)
)

// Codec errors.
var (
	ErrShortBuffer  = errors.New("wire: short buffer")
	ErrUnknownType  = errors.New("wire: unknown message type")
	ErrFrameTooBig  = errors.New("wire: frame exceeds maximum size")
	ErrTrailingData = errors.New("wire: trailing bytes after message")
)

// MaxFrameSize bounds a single frame; larger frames are rejected to protect
// against corrupt length prefixes.
const MaxFrameSize = 64 << 20

// ---------------------------------------------------------------------------
// Message struct pools.
//
// The steady-state message types — everything the decide hot path touches —
// are recycled through sync.Pools so a busy replica decodes without
// allocating. Rare control messages (PrepareOK, CatchUpResp, ...) are
// allocated normally: pooling them would widen the ownership audit for no
// measurable gain.

var (
	proposePool   = sync.Pool{New: func() any { return new(Propose) }}
	acceptPool    = sync.Pool{New: func() any { return new(Accept) }}
	heartbeatPool = sync.Pool{New: func() any { return new(Heartbeat) }}
	requestPool   = sync.Pool{New: func() any { return new(ClientRequest) }}
	replyPool     = sync.Pool{New: func() any { return new(ClientReply) }}
	readPool      = sync.Pool{New: func() any { return new(ClientRead) }}
	// Chunk transfer messages are pooled too: a big-state pull streams
	// thousands of them, and the responder encodes each from a borrowed
	// image slice — steady-state transfer must not allocate per frame.
	chunkReqPool = sync.Pool{New: func() any { return new(SnapshotChunkReq) }}
	chunkPool    = sync.Pool{New: func() any { return new(SnapshotChunk) }}
)

// NewClientReply returns a pooled, zeroed ClientReply for callers that build
// replies on the hot path and Release them after encoding.
func NewClientReply() *ClientReply {
	v := replyPool.Get().(*ClientReply)
	*v = ClientReply{}
	return v
}

// Release returns a hot-path message struct to its pool. The caller must be
// the message's sole owner and must not touch it afterwards. Byte fields are
// NOT recycled — they may be shared with a log entry or reply cache — so
// Release only severs the struct's references. Non-pooled message types are
// ignored (plain garbage collection reclaims them).
func Release(m Message) {
	switch v := m.(type) {
	case *Propose:
		*v = Propose{}
		proposePool.Put(v)
	case *Accept:
		*v = Accept{}
		acceptPool.Put(v)
	case *Heartbeat:
		*v = Heartbeat{}
		heartbeatPool.Put(v)
	case *ClientRequest:
		*v = ClientRequest{}
		requestPool.Put(v)
	case *ClientReply:
		*v = ClientReply{}
		replyPool.Put(v)
	case *ClientRead:
		*v = ClientRead{}
		readPool.Put(v)
	case *SnapshotChunkReq:
		*v = SnapshotChunkReq{}
		chunkReqPool.Put(v)
	case *SnapshotChunk:
		*v = SnapshotChunk{}
		chunkPool.Put(v)
	}
}

// NewSnapshotChunk returns a pooled, zeroed SnapshotChunk for responders
// that build chunks on the transfer path and Release them after encoding.
func NewSnapshotChunk() *SnapshotChunk {
	v := chunkPool.Get().(*SnapshotChunk)
	*v = SnapshotChunk{}
	return v
}

// NewSnapshotChunkReq returns a pooled, zeroed SnapshotChunkReq.
func NewSnapshotChunkReq() *SnapshotChunkReq {
	v := chunkReqPool.Get().(*SnapshotChunkReq)
	*v = SnapshotChunkReq{}
	return v
}

// ownedCopy returns an owned copy of b (nil stays nil, so retained messages
// compare equal to their borrowed originals).
func ownedCopy(b []byte) []byte {
	if b == nil {
		return nil
	}
	cp := make([]byte, len(b))
	copy(cp, b)
	return cp
}

// Retain copies every borrowed byte field of m into fresh memory, in place.
// After Retain the message no longer aliases the frame it was decoded from
// and survives the frame being recycled or rewritten. Messages without byte
// fields (Accept, Heartbeat, ...) are no-ops.
func Retain(m Message) {
	switch v := m.(type) {
	case *Propose:
		v.Value = ownedCopy(v.Value)
	case *PrepareOK:
		for i := range v.Entries {
			v.Entries[i].Value = ownedCopy(v.Entries[i].Value)
		}
	case *CatchUpResp:
		for i := range v.Entries {
			v.Entries[i].Value = ownedCopy(v.Entries[i].Value)
		}
	case *SnapshotChunk:
		v.Data = ownedCopy(v.Data)
	case *ClientRequest:
		v.Payload = ownedCopy(v.Payload)
	case *ClientReply:
		v.Payload = ownedCopy(v.Payload)
	case *ClientRead:
		v.Payload = ownedCopy(v.Payload)
	}
}

// ---------------------------------------------------------------------------
// Encoding.

// appender accumulates the encoded form.
type appender struct{ b []byte }

func (a *appender) u8(v uint8)   { a.b = append(a.b, v) }
func (a *appender) u32(v uint32) { a.b = binary.LittleEndian.AppendUint32(a.b, v) }
func (a *appender) u64(v uint64) { a.b = binary.LittleEndian.AppendUint64(a.b, v) }
func (a *appender) i32(v int32)  { a.u32(uint32(v)) }
func (a *appender) i64(v int64)  { a.u64(uint64(v)) }
func (a *appender) bool(v bool) {
	if v {
		a.u8(1)
	} else {
		a.u8(0)
	}
}
func (a *appender) bytes(v []byte) {
	a.u32(uint32(len(v)))
	a.b = append(a.b, v...)
}

// Size returns the exact encoded size of m (type tag + body) — the
// pre-allocation hint for AppendMessage and the frame length the transport
// writes without encoding first.
func Size(m Message) int {
	switch v := m.(type) {
	case *Hello:
		return 1 + 4
	case *Prepare:
		return 1 + 4 + 8
	case *PrepareOK:
		n := 1 + 4 + 4
		for i := range v.Entries {
			n += 8 + 4 + 1 + 4 + len(v.Entries[i].Value)
		}
		return n
	case *Propose:
		return 1 + 4 + 8 + 8 + 4 + len(v.Value)
	case *Accept:
		return 1 + 4 + 8
	case *Heartbeat:
		return 1 + 4 + 8 + 4 + 8
	case *LeaseAck:
		return 1 + 4 + 8
	case *ReadIndexQuery:
		return 1 + 8
	case *ReadIndexResp:
		return 1 + 8 + 8 + 1
	case *ClientRead:
		return 1 + 8 + 8 + 1 + 4 + len(v.Payload)
	case *CatchUpQuery:
		return 1 + 8 + 8
	case *CatchUpResp:
		n := 1 + 4
		for i := range v.Entries {
			n += 8 + 4 + len(v.Entries[i].Value)
		}
		n++ // HasSnapshot flag
		if v.HasSnapshot {
			n += 8 + 4 // SnapshotMeta: LastIncluded, Groups
		}
		return n
	case *SnapshotChunkReq:
		return 1 + 8 + 1 + 4
	case *SnapshotChunk:
		return 1 + 8 + 1 + 4 + 1 + 4 + len(v.Data)
	case *ClientRequest:
		return 1 + 8 + 8 + 4 + len(v.Payload)
	case *ClientReply:
		return 1 + 8 + 8 + 1 + 4 + 4 + len(v.Payload)
	case *PeerMsg:
		return peerHeaderSize + Size(v.Msg)
	case *TopoUpdate:
		return 1 + TopologySize(&v.Topo)
	case *Reconfig:
		return 1 + 8 + 8 + 4 + 4 + len(v.PeerAddr) + 4 + len(v.ClientAddr)
	default:
		panic(fmt.Sprintf("wire: Size of unknown message %T", m))
	}
}

// AppendMessage appends m's self-describing encoding (type tag + body) to
// dst and returns the extended slice. With dst pre-sized (Size) the encode
// is allocation-free; a PeerMsg's message is encoded inline after its header.
func AppendMessage(dst []byte, m Message) []byte {
	a := appender{b: dst}
	a.u8(uint8(m.Type()))
	switch v := m.(type) {
	case *Hello:
		a.i32(v.ID)
	case *Prepare:
		a.i32(int32(v.View))
		a.i64(int64(v.FirstUnstable))
	case *PrepareOK:
		a.i32(int32(v.View))
		a.u32(uint32(len(v.Entries)))
		for _, e := range v.Entries {
			a.i64(int64(e.ID))
			a.i32(int32(e.AcceptedView))
			a.bool(e.Decided)
			a.bytes(e.Value)
		}
	case *Propose:
		a.i32(int32(v.View))
		a.i64(int64(v.ID))
		a.i64(int64(v.DecidedUpTo))
		a.bytes(v.Value)
	case *Accept:
		a.i32(int32(v.View))
		a.i64(int64(v.ID))
	case *Heartbeat:
		a.i32(int32(v.View))
		a.i64(int64(v.DecidedUpTo))
		a.u32(v.LeaseMS)
		a.u64(v.LeaseSeq)
	case *LeaseAck:
		a.i32(int32(v.View))
		a.u64(v.Seq)
	case *ReadIndexQuery:
		a.u64(v.Seq)
	case *ReadIndexResp:
		a.u64(v.Seq)
		a.i64(int64(v.Index))
		a.bool(v.OK)
	case *ClientRead:
		a.u64(v.ClientID)
		a.u64(v.Seq)
		a.u8(v.Consistency)
		a.bytes(v.Payload)
	case *CatchUpQuery:
		a.i64(int64(v.From))
		a.i64(int64(v.To))
	case *CatchUpResp:
		a.u32(uint32(len(v.Entries)))
		for _, e := range v.Entries {
			a.i64(int64(e.ID))
			a.bytes(e.Value)
		}
		a.bool(v.HasSnapshot)
		if v.HasSnapshot {
			a.i64(int64(v.Meta.LastIncluded))
			a.i32(v.Meta.Groups)
		}
	case *SnapshotChunkReq:
		a.i64(int64(v.Cut))
		a.bool(v.Manifest)
		a.i32(v.Index)
	case *SnapshotChunk:
		a.i64(int64(v.Cut))
		a.bool(v.Manifest)
		a.i32(v.Index)
		a.bool(v.OK)
		a.bytes(v.Data)
	case *ClientRequest:
		a.u64(v.ClientID)
		a.u64(v.Seq)
		a.bytes(v.Payload)
	case *ClientReply:
		a.u64(v.ClientID)
		a.u64(v.Seq)
		a.bool(v.OK)
		a.i32(v.Redirect)
		a.bytes(v.Payload)
	case *PeerMsg:
		a.i64(v.Epoch)
		a.i32(v.Group)
		a.b = AppendMessage(a.b, v.Msg)
	case *TopoUpdate:
		a.b = AppendTopology(a.b, &v.Topo)
	case *Reconfig:
		a.u64(v.ClientID)
		a.u64(v.Seq)
		a.i32(v.Remove)
		a.bytes([]byte(v.PeerAddr))
		a.bytes([]byte(v.ClientAddr))
	default:
		panic(fmt.Sprintf("wire: AppendMessage of unknown message %T", m))
	}
	return a.b
}

// Marshal encodes m as a self-describing byte slice (type tag + body). It is
// the allocating convenience wrapper around AppendMessage; hot paths keep a
// scratch buffer and append instead.
func Marshal(m Message) []byte {
	return AppendMessage(make([]byte, 0, Size(m)), m)
}

// ---------------------------------------------------------------------------
// Decoding.

// reader consumes the encoded form with a sticky error.
type reader struct {
	b   []byte
	err error
}

func (r *reader) u8() uint8 {
	if r.err != nil || len(r.b) < 1 {
		r.fail()
		return 0
	}
	v := r.b[0]
	r.b = r.b[1:]
	return v
}

func (r *reader) u32() uint32 {
	if r.err != nil || len(r.b) < 4 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *reader) u64() uint64 {
	if r.err != nil || len(r.b) < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b)
	r.b = r.b[8:]
	return v
}

func (r *reader) i32() int32  { return int32(r.u32()) }
func (r *reader) i64() int64  { return int64(r.u64()) }
func (r *reader) bool() bool  { return r.u8() != 0 }
func (r *reader) fail()       { r.err = ErrShortBuffer; r.b = nil }
func (r *reader) len() uint32 { return uint32(len(r.b)) }

// bytes returns the next length-prefixed field as a sub-slice of the input
// — the borrow at the heart of the zero-copy decode path. Callers of
// Unmarshal that outlive the frame go through Retain.
func (r *reader) bytes() []byte {
	n := r.u32()
	if r.err != nil || n > r.len() {
		r.fail()
		return nil
	}
	v := r.b[:n:n]
	r.b = r.b[n:]
	return v
}

// Unmarshal decodes a bare message produced by Marshal/AppendMessage: a
// client frame or a Hello. Peer frames carry a PeerMsg header and go through
// UnmarshalPeer; Unmarshal rejects them.
//
// Ownership: the returned message BORROWS from b — its []byte fields alias
// the input — and its struct may come from an internal pool. It is valid
// only while b is; callers that retain it past b's reuse must call Retain,
// and callers that fully consume it may hand the struct back with Release.
func Unmarshal(b []byte) (Message, error) {
	r := reader{b: b}
	return r.message()
}

// peerHeaderSize is the encoded size of a PeerMsg header: tag, epoch, group.
const peerHeaderSize = 1 + 8 + 4

// UnmarshalPeer decodes a peer frame: the PeerMsg header and the message
// after it, which is returned directly under Unmarshal's ownership rules. A
// frame without the header, a nested header and trailing bytes are errors.
func UnmarshalPeer(b []byte) (epoch int64, group int32, m Message, err error) {
	r := reader{b: b}
	if t := MsgType(r.u8()); r.err == nil && t != TPeerMsg {
		return 0, 0, nil, fmt.Errorf("%w: %v frame without a peer header", ErrUnknownType, t)
	}
	epoch, group = r.i64(), r.i32()
	if r.err != nil {
		return 0, 0, nil, r.err
	}
	if m, err = r.message(); err != nil {
		return 0, 0, nil, err
	}
	return epoch, group, m, nil
}

// message decodes one bare message that must fill the rest of r.
func (r *reader) message() (Message, error) {
	m, err := decodeMessage(r)
	if err != nil {
		return nil, err
	}
	if len(r.b) != 0 {
		Release(m) // decoded but rejected: the pooled struct is still ours
		return nil, ErrTrailingData
	}
	return m, nil
}

// decodeMessage parses one bare message from r. A PeerMsg tag is unknown
// here, which is what rejects a nested header.
func decodeMessage(r *reader) (Message, error) {
	t := MsgType(r.u8())
	if r.err != nil {
		return nil, r.err
	}
	var m Message
	switch t {
	case THello:
		m = &Hello{ID: r.i32()}
	case TPrepare:
		m = &Prepare{View: View(r.i32()), FirstUnstable: InstanceID(r.i64())}
	case TPrepareOK:
		v := &PrepareOK{View: View(r.i32())}
		n := r.u32()
		if r.err == nil && n <= r.len() { // each entry is >= 1 byte
			v.Entries = make([]InstanceState, 0, n)
			for range n {
				v.Entries = append(v.Entries, InstanceState{
					ID:           InstanceID(r.i64()),
					AcceptedView: View(r.i32()),
					Decided:      r.bool(),
					Value:        r.bytes(),
				})
			}
		} else if n > 0 {
			r.fail()
		}
		m = v
	case TPropose:
		v := proposePool.Get().(*Propose)
		v.View = View(r.i32())
		v.ID = InstanceID(r.i64())
		v.DecidedUpTo = InstanceID(r.i64())
		v.Value = r.bytes()
		m = v
	case TAccept:
		v := acceptPool.Get().(*Accept)
		v.View = View(r.i32())
		v.ID = InstanceID(r.i64())
		m = v
	case THeartbeat:
		v := heartbeatPool.Get().(*Heartbeat)
		v.View = View(r.i32())
		v.DecidedUpTo = InstanceID(r.i64())
		v.LeaseMS = r.u32()
		v.LeaseSeq = r.u64()
		m = v
	case TLeaseAck:
		m = &LeaseAck{View: View(r.i32()), Seq: r.u64()}
	case TReadIndexQuery:
		m = &ReadIndexQuery{Seq: r.u64()}
	case TReadIndexResp:
		m = &ReadIndexResp{Seq: r.u64(), Index: InstanceID(r.i64()), OK: r.bool()}
	case TClientRead:
		v := readPool.Get().(*ClientRead)
		v.ClientID = r.u64()
		v.Seq = r.u64()
		v.Consistency = r.u8()
		v.Payload = r.bytes()
		m = v
	case TCatchUpQuery:
		m = &CatchUpQuery{From: InstanceID(r.i64()), To: InstanceID(r.i64())}
	case TCatchUpResp:
		v := &CatchUpResp{}
		n := r.u32()
		if r.err == nil && n <= r.len() {
			v.Entries = make([]DecidedValue, 0, n)
			for range n {
				v.Entries = append(v.Entries, DecidedValue{
					ID:    InstanceID(r.i64()),
					Value: r.bytes(),
				})
			}
		} else if n > 0 {
			r.fail()
		}
		v.HasSnapshot = r.bool()
		if v.HasSnapshot {
			v.Meta = SnapshotMeta{
				LastIncluded: InstanceID(r.i64()),
				Groups:       r.i32(),
			}
		}
		m = v
	case TSnapshotChunkReq:
		v := chunkReqPool.Get().(*SnapshotChunkReq)
		v.Cut = InstanceID(r.i64())
		v.Manifest = r.bool()
		v.Index = r.i32()
		m = v
	case TSnapshotChunk:
		v := chunkPool.Get().(*SnapshotChunk)
		v.Cut = InstanceID(r.i64())
		v.Manifest = r.bool()
		v.Index = r.i32()
		v.OK = r.bool()
		v.Data = r.bytes()
		m = v
	case TClientRequest:
		v := requestPool.Get().(*ClientRequest)
		v.ClientID = r.u64()
		v.Seq = r.u64()
		v.Payload = r.bytes()
		m = v
	case TClientReply:
		v := replyPool.Get().(*ClientReply)
		v.ClientID = r.u64()
		v.Seq = r.u64()
		v.OK = r.bool()
		v.Redirect = r.i32()
		v.Payload = r.bytes()
		m = v
	case TTopoUpdate:
		t, err := decodeTopologyFrom(r)
		if err != nil {
			return nil, err
		}
		m = &TopoUpdate{Topo: *t}
	case TReconfig:
		v := &Reconfig{
			ClientID: r.u64(),
			Seq:      r.u64(),
			Remove:   r.i32(),
		}
		v.PeerAddr = string(r.bytes())
		v.ClientAddr = string(r.bytes())
		m = v
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownType, uint8(t))
	}
	if r.err != nil {
		releasePartial(m)
		return nil, r.err
	}
	return m, nil
}

// releasePartial returns a pooled struct that failed mid-decode. Safe: the
// struct was never handed to the caller.
func releasePartial(m Message) {
	if m != nil {
		Release(m)
	}
}

// ---------------------------------------------------------------------------
// Batch encoding.

// BatchOverhead is the encoded size overhead per batch, and RequestOverhead
// per request within it; used by the batching policy to respect the BSZ
// budget in wire bytes.
const (
	BatchOverhead   = 4
	RequestOverhead = 8 + 8 + 4
)

// EncodedRequestSize returns the wire size of one request inside a batch.
func EncodedRequestSize(payload int) int { return RequestOverhead + payload }

// BatchSize returns the exact encoded size of a batch of reqs.
func BatchSize(reqs []*ClientRequest) int {
	n := BatchOverhead
	for _, req := range reqs {
		n += EncodedRequestSize(len(req.Payload))
	}
	return n
}

// AppendBatch appends the batch encoding of reqs to dst.
func AppendBatch(dst []byte, reqs []*ClientRequest) []byte {
	a := appender{b: dst}
	a.u32(uint32(len(reqs)))
	for _, req := range reqs {
		a.u64(req.ClientID)
		a.u64(req.Seq)
		a.bytes(req.Payload)
	}
	return a.b
}

// EncodeBatch serializes a batch of client requests into one consensus value
// (Sec. III-B: requests are grouped into batches, the unit of ordering). The
// result is exact-size: batch values are retained by the replicated log, so
// the one allocation per batch is inherent — but it never over-allocates.
func EncodeBatch(reqs []*ClientRequest) []byte {
	return AppendBatch(make([]byte, 0, BatchSize(reqs)), reqs)
}

// DecodeBatch parses a consensus value back into client requests. Like
// Unmarshal it BORROWS: request payloads alias b. Batch values live in the
// replicated log and are immutable, so borrowing is safe for log-owned
// values; decode of a transient buffer must Retain what it keeps.
func DecodeBatch(b []byte) ([]*ClientRequest, error) {
	return DecodeBatchInto(nil, b)
}

// DecodeBatchInto is DecodeBatch with caller-managed storage: the request
// slice reuses dst's capacity and the ClientRequest structs come from the
// shared pool, so a steady-state decode loop that Releases its requests
// after execution allocates nothing. Payloads borrow from b.
func DecodeBatchInto(dst []*ClientRequest, b []byte) ([]*ClientRequest, error) {
	r := reader{b: b}
	n := r.u32()
	if r.err != nil || uint64(n) > uint64(r.len()) {
		return nil, ErrShortBuffer
	}
	reqs := dst[:0]
	ok := true
	for range n {
		req := requestPool.Get().(*ClientRequest)
		req.ClientID = r.u64()
		req.Seq = r.u64()
		req.Payload = r.bytes()
		reqs = append(reqs, req)
		if r.err != nil {
			ok = false
			break
		}
	}
	if ok && len(r.b) != 0 {
		r.err = ErrTrailingData
		ok = false
	}
	if !ok {
		for _, req := range reqs {
			Release(req)
		}
		if r.err == nil {
			r.err = ErrShortBuffer
		}
		return nil, r.err
	}
	return reqs, nil
}

// ---------------------------------------------------------------------------
// Framing.

// WriteFrame writes payload to w prefixed with its uint32 length.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrameSize {
		return ErrFrameTooBig
	}
	var hdr [4]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: write frame header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("wire: write frame payload: %w", err)
	}
	return nil
}

// ReadFrameHeader reads and validates a frame's length prefix, returning
// the payload size the caller must read next. The single definition of the
// framing protocol, shared by ReadFrame and the transports' pooled readers.
func ReadFrameHeader(r io.Reader) (int, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return 0, err
	}
	n := binary.LittleEndian.Uint32(hdr[:])
	if n > MaxFrameSize || n > math.MaxInt32 {
		return 0, ErrFrameTooBig
	}
	return int(n), nil
}

// ReadFrame reads one length-prefixed frame from r.
func ReadFrame(r io.Reader) ([]byte, error) {
	n, err := ReadFrameHeader(r)
	if err != nil {
		return nil, err
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire: read frame payload: %w", err)
	}
	return payload, nil
}
