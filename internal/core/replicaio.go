package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"gosmr/internal/profiling"
	"gosmr/internal/transport"
	"gosmr/internal/wire"
)

// peerLink manages the single connection to one peer, surviving reconnects.
// The replica with the higher ID dials; the lower-ID side accepts, so each
// pair has exactly one canonical connection.
type peerLink struct {
	peer   int
	mu     sync.Mutex
	cond   *sync.Cond
	conn   transport.FrameConn
	gen    int // bumped on every (re)connect, to pair failures with conns
	closed bool

	// lastTopo rate-limits the TopoUpdate answered to this peer's
	// mismatched-epoch frames (unix nanos of the last send).
	lastTopo atomic.Int64
}

func newPeerLink(peer int) *peerLink {
	l := &peerLink{peer: peer}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// get blocks until a connection is available (or the link is closed).
func (l *peerLink) get() (transport.FrameConn, int, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.conn == nil && !l.closed {
		l.cond.Wait()
	}
	if l.closed {
		return nil, 0, false
	}
	return l.conn, l.gen, true
}

// current returns the connection without blocking (nil if none).
func (l *peerLink) current() (transport.FrameConn, int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn, l.gen
}

// set installs a fresh connection, replacing (and closing) any previous one.
func (l *peerLink) set(conn transport.FrameConn) {
	l.mu.Lock()
	old := l.conn
	if l.closed {
		l.mu.Unlock()
		_ = conn.Close()
		return
	}
	l.conn = conn
	l.gen++
	l.cond.Broadcast()
	l.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
}

// fail reports that the connection of generation gen broke; stale reports
// (about already-replaced connections) are ignored.
func (l *peerLink) fail(gen int) {
	l.mu.Lock()
	if l.gen != gen || l.conn == nil {
		l.mu.Unlock()
		return
	}
	old := l.conn
	l.conn = nil
	l.cond.Broadcast()
	l.mu.Unlock()
	_ = old.Close()
}

// close tears the link down permanently.
func (l *peerLink) close() {
	l.mu.Lock()
	l.closed = true
	old := l.conn
	l.conn = nil
	l.cond.Broadcast()
	l.mu.Unlock()
	if old != nil {
		_ = old.Close()
	}
}

// disconnected reports whether the link currently has no connection.
func (l *peerLink) disconnected() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.conn == nil && !l.closed
}

// isClosed reports whether the link was torn down permanently.
func (l *peerLink) isClosed() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.closed
}

// replicaIO is the ReplicaIO module (Sec. V-B): blocking I/O with two
// dedicated threads per peer socket — a reader that deserializes into the
// DispatcherQueue and a sender that drains the peer's SendQueue. The
// dedicated sender prevents the Protocol thread from ever blocking on a
// socket write to a slow or crashed peer (the distributed-deadlock scenario
// of Sec. V-B).
type replicaIO struct {
	r        *Replica
	listener transport.Listener

	mu      sync.Mutex
	links   []*peerLink // indexed by replica ID; nil = self or removed
	stopped bool

	stop chan struct{}
	once sync.Once
	wg   sync.WaitGroup
}

// newReplicaIO binds the peer listener, starts dialers toward lower-ID
// peers, and launches the per-peer reader/sender threads. The peer set comes
// from the boot topology; reconfigurations grow or shrink it through
// applyTopology.
func newReplicaIO(r *Replica) (*replicaIO, error) {
	io := &replicaIO{
		r:    r,
		stop: make(chan struct{}),
	}
	t := r.topo.Load()
	// Listen even when alone: a later AddReplica needs somewhere for the
	// joiner to dial.
	l, err := r.cfg.Network.Listen(t.Peers[r.cfg.ID])
	if err != nil {
		return nil, fmt.Errorf("core: peer listener: %w", err)
	}
	io.listener = l
	io.wg.Add(1)
	go io.runAcceptLoop()
	io.mu.Lock()
	for p := range t.Peers {
		if p != r.cfg.ID && t.Active(p) {
			io.spawnPeerLocked(p)
		}
	}
	io.mu.Unlock()
	return io, nil
}

// spawnPeerLocked creates the link and per-peer threads for one active peer.
// Caller holds io.mu.
func (io *replicaIO) spawnPeerLocked(peer int) {
	for len(io.links) <= peer {
		io.links = append(io.links, nil)
	}
	l := newPeerLink(peer)
	io.links[peer] = l
	if peer < io.r.cfg.ID {
		io.wg.Add(1)
		go io.runDialer(peer, l)
	}
	io.wg.Add(2)
	go io.runReader(peer, l, io.r.profThread(fmt.Sprintf("ReplicaIORcv-%d", peer)))
	go io.runSender(peer, l, io.r.profThread(fmt.Sprintf("ReplicaIOSnd-%d", peer)))
}

// linkFor returns peer's link (nil for self, removed, or unknown IDs).
func (io *replicaIO) linkFor(peer int) *peerLink {
	io.mu.Lock()
	defer io.mu.Unlock()
	if peer < 0 || peer >= len(io.links) {
		return nil
	}
	return io.links[peer]
}

// applyTopology reshapes the peer set to a newly adopted topology: links for
// added replicas are created (the joiner has the higher ID, so it dials us —
// our side just needs the link, reader, and sender ready), links for removed
// replicas are closed, terminating their threads. Idempotent.
func (io *replicaIO) applyTopology(t *wire.Topology) {
	io.mu.Lock()
	defer io.mu.Unlock()
	if io.stopped {
		return
	}
	for p, addr := range t.Peers {
		switch {
		case p == io.r.cfg.ID:
		case addr == "":
			if p < len(io.links) && io.links[p] != nil {
				// Detach now (the fence stops honoring the peer immediately)
				// but close after a grace delay: the sender is still draining
				// its closed queue, whose last item is the farewell TopoUpdate
				// telling a lagging removed replica WHY its cluster vanished.
				l := io.links[p]
				io.links[p] = nil
				io.wg.Add(1)
				go func() {
					defer io.wg.Done()
					select {
					case <-io.stop:
					case <-time.After(250 * time.Millisecond):
					}
					l.close()
				}()
			}
		case p >= len(io.links) || io.links[p] == nil:
			io.spawnPeerLocked(p)
		}
	}
}

// runAcceptLoop accepts connections from higher-ID peers; the first frame
// must be a Hello identifying the dialer (bare, without the peer header —
// the handshake predates any epoch agreement). Membership is checked against
// the CURRENT topology: a joiner dialing a replica that has not yet adopted
// the epoch that added it is refused and retries with backoff.
func (io *replicaIO) runAcceptLoop() {
	defer io.wg.Done()
	for {
		conn, err := io.listener.Accept()
		if err != nil {
			return
		}
		io.wg.Add(1)
		go func() {
			defer io.wg.Done()
			frame, err := conn.ReadFrame()
			if err != nil {
				_ = conn.Close()
				return
			}
			msg, err := wire.Unmarshal(frame)
			if err != nil {
				_ = conn.Close()
				return
			}
			hello, ok := msg.(*wire.Hello)
			if !ok || int(hello.ID) <= io.r.cfg.ID {
				_ = conn.Close()
				return
			}
			if t := io.r.topo.Load(); !t.Active(int(hello.ID)) {
				// Not a member of our epoch: refused — but answer the
				// handshake with the committed topology first. A removed
				// replica that missed the ordered decide learns here (each
				// redial is answered until it adopts the epoch excluding it
				// and fail-stops); a joiner dialing before we adopted its
				// epoch just sees a stale map and retries with backoff.
				_ = conn.WriteFrame(wire.Marshal(&wire.PeerMsg{Epoch: t.Epoch, Msg: &wire.TopoUpdate{Topo: *t}}))
				_ = conn.Close()
				return
			}
			link := io.linkFor(int(hello.ID))
			if link == nil {
				_ = conn.Close()
				return
			}
			link.set(conn)
		}()
	}
}

// runDialer maintains the outbound connection to a lower-ID peer,
// redialling with backoff whenever it drops. The address comes from the
// current topology (a peer's address is fixed for the lifetime of its ID).
func (io *replicaIO) runDialer(peer int, link *peerLink) {
	defer io.wg.Done()
	backoff := 10 * time.Millisecond
	const maxBackoff = time.Second
	for {
		select {
		case <-io.stop:
			return
		default:
		}
		if link.isClosed() {
			return
		}
		if !link.disconnected() {
			// Connected: poll for failure. The reader/sender call fail() on
			// error, flipping disconnected back to true.
			select {
			case <-io.stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
			continue
		}
		t := io.r.topo.Load()
		if peer >= len(t.Peers) || t.Peers[peer] == "" {
			return
		}
		conn, err := io.r.cfg.Network.Dial(t.Peers[peer])
		if err == nil {
			err = conn.WriteFrame(wire.Marshal(&wire.Hello{ID: int32(io.r.cfg.ID)}))
			if err == nil {
				link.set(conn)
				backoff = 10 * time.Millisecond
				continue
			}
			_ = conn.Close()
		}
		select {
		case <-io.stop:
			return
		case <-time.After(backoff):
		}
		backoff *= 2
		if backoff > maxBackoff {
			backoff = maxBackoff
		}
	}
}

// answerStaleEpoch replies to a mismatched-epoch frame with this replica's
// committed topology, rate-limited per link — the "redirect carrying the new
// topology". Sent for frames from older epochs (the peer adopts it) and newer
// ones alike (the peer's reader sees our stale stamp and answers in kind, so
// the exchange converges from either side).
func (io *replicaIO) answerStaleEpoch(link *peerLink, t *wire.Topology) {
	now := time.Now().UnixNano()
	last := link.lastTopo.Load()
	if now-last < int64(20*time.Millisecond) || !link.lastTopo.CompareAndSwap(last, now) {
		return
	}
	io.r.enqueueSend(link.peer, 0, &wire.TopoUpdate{Topo: *t})
}

// fenceVerdict is what the reader does with one decoded peer frame.
type fenceVerdict uint8

const (
	fenceDispatch fenceVerdict = iota // handleDirect, else the group's Protocol thread
	fenceTopo                         // TopoUpdate: adopt a newer epoch, answer an older one
	fenceStale                        // wrong epoch: drop and answer with our topology
	fenceDrop                         // out-of-range group: a misconfigured peer
)

// fence classifies a frame stamped (epoch, group) carrying msg at a replica
// in epoch mine running groups ordering groups. A TopoUpdate crosses at any
// epoch — it is what ends a mismatch; everything else must match the epoch
// before its group is looked at.
func fence(epoch int64, group int32, msg wire.Message, mine int64, groups int) fenceVerdict {
	switch {
	case msg.Type() == wire.TTopoUpdate:
		return fenceTopo
	case epoch != mine:
		return fenceStale
	case group < 0 || int(group) >= groups:
		return fenceDrop
	}
	return fenceDispatch
}

// runReader is the ReplicaIORcv thread for one peer: read, deserialize,
// apply the epoch fence, touch the failure detector, and dispatch to the
// owning group's Protocol thread (the frame header's group demultiplexes the
// shared connection).
//
// Ownership: the frame buffer is pooled, the decoded message borrows from
// it, and the dispatched event outlives this loop iteration — so the reader
// Retains the message (copying only the byte fields the Protocol thread
// will store, e.g. a Propose's batch) and recycles the frame immediately.
// The Protocol thread Releases the message struct after handling it.
func (io *replicaIO) runReader(peer int, link *peerLink, th *profiling.Thread) {
	defer io.wg.Done()
	th.Transition(profiling.StateBusy)
	defer th.Transition(profiling.StateOther)
	for {
		th.Transition(profiling.StateOther) // blocked on socket read
		conn, gen, ok := link.get()
		if !ok {
			return
		}
		frame, pooled, err := transport.ReadFrameOwned(conn)
		th.Transition(profiling.StateBusy)
		if err != nil {
			link.fail(gen)
			continue
		}
		epoch, group, msg, err := wire.UnmarshalPeer(frame)
		if err != nil {
			transport.RecycleFrame(frame, pooled)
			continue
		}
		myTopo := io.r.topo.Load()
		switch fence(epoch, group, msg, myTopo.Epoch, len(io.r.groups)) {
		case fenceTopo:
			t := msg.(*wire.TopoUpdate).Topo // decoded with owned strings; safe past frame recycle
			transport.RecycleFrame(frame, pooled)
			if t.Epoch > myTopo.Epoch {
				io.r.adoptTopology(&t, "peer")
			} else if t.Epoch < myTopo.Epoch {
				io.answerStaleEpoch(link, myTopo)
			}
			io.r.detector.TouchRecv(peer)
			continue
		case fenceStale:
			wire.Release(msg)
			transport.RecycleFrame(frame, pooled)
			io.answerStaleEpoch(link, myTopo)
			continue
		case fenceDrop:
			wire.Release(msg)
			transport.RecycleFrame(frame, pooled)
			continue
		}
		if io.handleDirect(peer, msg) {
			// Lease/read-index/snapshot-chunk traffic is answered on the
			// reader thread and never reaches a Protocol thread (the only
			// byte field among them — SnapshotChunk.Data — is copied by the
			// puller before the frame recycles, so no Retain is needed).
			transport.RecycleFrame(frame, pooled)
			continue
		}
		wire.Retain(msg)
		transport.RecycleFrame(frame, pooled)
		io.r.detector.TouchRecv(peer)
		if err := io.r.groups[group].dispatchQ.Put(th, event{kind: evPeerMsg, from: peer, msg: msg}); err != nil {
			return
		}
	}
}

// handleDirect intercepts messages the reader answers itself: lease acks,
// read-index queries (answered from lock-free hints + one lease-state scan),
// read-index responses (forwarded to the ReadManager), and snapshot chunk
// traffic (requests answered from the image store; responses copied and
// routed to the puller — the copy matters, the frame recycles when this
// returns). Returns true when the message was consumed.
func (io *replicaIO) handleDirect(peer int, msg wire.Message) bool {
	r := io.r
	switch m := msg.(type) {
	case *wire.LeaseAck:
		r.leases.onAck(peer, m.View, m.Seq)
	case *wire.ReadIndexQuery:
		resp := &wire.ReadIndexResp{Seq: m.Seq}
		// Validate the lease FIRST, then snapshot the frontier: the frontier
		// only grows, so it covers everything decided while the lease was
		// known valid (the follower read's linearization point).
		if r.leaseValid(time.Now()) {
			resp.OK = true
			resp.Index = r.readFrontier()
		}
		r.enqueueSend(peer, 0, resp)
	case *wire.ReadIndexResp:
		r.reads.deliverResp(m.Seq, m.Index, m.OK)
	case *wire.SnapshotChunkReq:
		r.serveSnapshotChunk(peer, m)
		wire.Release(m)
	case *wire.SnapshotChunk:
		r.puller.deliver(m)
		wire.Release(m)
	default:
		return false
	}
	r.detector.TouchRecv(peer)
	return true
}

// runSender is the ReplicaIOSnd thread for one peer: take from the
// SendQueue, serialize, write. When the transport buffers writes
// (transport.BatchWriter), the sender keeps draining the queue without
// flushing and flushes only once the queue is empty, so a burst of
// back-to-back frames — a window's worth of Proposes, a batch of Accepts —
// coalesces into one syscall instead of one per message. With the
// zero-copy extension (transport.MessageWriter) each message is encoded
// straight into the transport's write buffer; otherwise it is encoded into
// a per-sender scratch buffer reused across messages — either way the hot
// send path allocates nothing. Every frame carries the peer header: the
// sender's current epoch and the item's group, stamped into one reused
// envelope.
func (io *replicaIO) runSender(peer int, link *peerLink, th *profiling.Thread) {
	defer io.wg.Done()
	th.Transition(profiling.StateBusy)
	defer th.Transition(profiling.StateOther)
	q := io.r.sendQueue(peer)
	if q == nil {
		return
	}
	var mc msgConn
	var env wire.PeerMsg
	write := func(it sendItem) error {
		env = wire.PeerMsg{Epoch: io.r.topo.Load().Epoch, Group: it.group, Msg: it.msg}
		return mc.write(&env)
	}
	lastGen := -1
	for {
		it, err := q.Take(th)
		if err != nil {
			return
		}
		th.Transition(profiling.StateOther) // possibly blocked on socket write
		conn, gen, ok := link.get()
		if !ok {
			return
		}
		if lastGen >= 0 && gen != lastGen {
			// The connection was replaced while messages queued: that
			// backlog — up to a full SendQueue of Proposes aimed at the dead
			// connection — is stale. Everything in it is recoverable
			// (retransmission, heartbeats, catch-up and read-index retries),
			// so drop it and let the fresh link start from live traffic
			// instead of replaying a window the peer no longer wants.
			dropped := uint64(1) // it itself
			for {
				if _, ok := q.TryTake(); !ok {
					break
				}
				dropped++
			}
			io.r.droppedBacklog.Add(dropped)
			lastGen = gen
			th.Transition(profiling.StateBusy)
			continue
		}
		lastGen = gen
		mc.bind(conn)
		werr := write(it)
		if werr == nil && mc.buffered() {
			// Drain the backlog into the write buffer before flushing.
			for {
				next, ok := q.TryTake()
				if !ok {
					break
				}
				if werr = write(next); werr != nil {
					break
				}
			}
			if werr == nil {
				werr = mc.flush()
			}
		}
		env.Msg = nil
		th.Transition(profiling.StateBusy)
		if werr != nil {
			link.fail(gen)
			continue // messages dropped; retransmission recovers them
		}
		io.r.detector.TouchSent(peer)
	}
}

// msgConn wraps one connection with the best available write path: direct
// message encoding (MessageWriter), buffered frames (BatchWriter, via a
// reused scratch buffer), or eager frames. The scratch persists across
// reconnects; bind is cheap for an unchanged connection.
type msgConn struct {
	conn    transport.FrameConn
	mw      transport.MessageWriter
	bw      transport.BatchWriter
	scratch []byte
}

// bind points the writer at conn, re-detecting the extensions only when the
// connection changed.
func (m *msgConn) bind(conn transport.FrameConn) {
	if conn == m.conn {
		return
	}
	m.conn = conn
	m.mw, _ = conn.(transport.MessageWriter)
	m.bw, _ = conn.(transport.BatchWriter)
}

// buffered reports whether writes are staged until flush.
func (m *msgConn) buffered() bool { return m.mw != nil || m.bw != nil }

// write encodes and stages (or eagerly sends) one message.
func (m *msgConn) write(msg wire.Message) error {
	if m.mw != nil {
		return m.mw.WriteMessageNoFlush(msg)
	}
	m.scratch = wire.AppendMessage(m.scratch[:0], msg)
	var err error
	if m.bw != nil {
		err = m.bw.WriteFrameNoFlush(m.scratch)
	} else {
		err = m.conn.WriteFrame(m.scratch)
	}
	m.scratch = transport.TrimScratch(m.scratch)
	return err
}

// flush pushes staged messages to the wire.
func (m *msgConn) flush() error {
	if m.mw != nil {
		return m.mw.Flush()
	}
	if m.bw != nil {
		return m.bw.Flush()
	}
	return nil
}

// close tears down the module and waits for all its goroutines.
func (io *replicaIO) close() {
	io.once.Do(func() {
		close(io.stop)
		_ = io.listener.Close()
		io.mu.Lock()
		io.stopped = true
		links := append([]*peerLink(nil), io.links...)
		io.mu.Unlock()
		for _, l := range links {
			if l != nil {
				l.close()
			}
		}
	})
	io.wg.Wait()
}
