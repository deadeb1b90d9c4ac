package core

import (
	"fmt"
	"sync"

	"gosmr/internal/profiling"
	"gosmr/internal/queue"
	"gosmr/internal/replycache"
	"gosmr/internal/transport"
	"gosmr/internal/wire"
)

// clientWork is one raw inbound frame with the connection it arrived on.
// The frame buffer's ownership travels with it: the connection reader hands
// it off, the worker recycles it once the decoded request is retained or
// dead (pooled is false for transports without the pooled-read extension —
// recycling their fresh buffers is still correct, just not required).
type clientWork struct {
	frame  []byte
	pooled bool
	cc     *clientConn
}

// clientIO is the ClientIO module (Sec. V-A): a listener, a pool of worker
// threads that do the CPU work (deserialization, reply-cache check, request
// hand-off), and per-connection reader/writer goroutines standing in for the
// non-blocking I/O event loop of the Java implementation. Connections are
// assigned to workers round-robin, exactly as the paper describes.
type clientIO struct {
	r        *Replica
	listener transport.Listener
	workers  []*queue.Bounded[clientWork]

	mu    sync.Mutex
	conns map[*clientConn]struct{}
	next  int // round-robin worker assignment

	closed bool
	wg     sync.WaitGroup
}

// newClientIO binds the client listener and starts the module's goroutines.
func newClientIO(r *Replica) (*clientIO, error) {
	l, err := r.cfg.Network.Listen(r.cfg.ClientAddr)
	if err != nil {
		return nil, fmt.Errorf("core: client listener: %w", err)
	}
	c := &clientIO{
		r:        r,
		listener: l,
		conns:    make(map[*clientConn]struct{}),
	}
	for i := range r.cfg.ClientIOWorkers {
		q := queue.NewBounded[clientWork](fmt.Sprintf("ClientIOQueue-%d", i), 512)
		c.workers = append(c.workers, q)
		th := r.profThread(fmt.Sprintf("ClientIO-%d", i))
		c.wg.Add(1)
		go c.runWorker(q, th)
	}
	c.wg.Add(1)
	go c.runAcceptLoop()
	return c, nil
}

// Addr returns the bound client-facing address.
func (c *clientIO) Addr() string { return c.listener.Addr() }

// runAcceptLoop accepts client connections and assigns them to workers.
func (c *clientIO) runAcceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.listener.Accept()
		if err != nil {
			return // listener closed
		}
		cc := &clientConn{
			conn:    conn,
			replies: queue.NewBounded[wire.Message]("replies", replyQueueCap),
		}
		c.mu.Lock()
		if c.closed {
			c.mu.Unlock()
			_ = conn.Close()
			return
		}
		c.conns[cc] = struct{}{}
		w := c.workers[c.next%len(c.workers)]
		c.next++
		c.mu.Unlock()

		// Greeting for reconfigured clusters: the client learns the committed
		// topology (and its epoch) before any reply, so a client that dialed a
		// stale address list re-resolves immediately.
		if t := c.r.topo.Load(); t.Epoch > 0 {
			_, _ = cc.replies.TryPut(&wire.TopoUpdate{Topo: *t})
		}

		c.wg.Add(2)
		go c.runConnReader(cc, w)
		go c.runConnWriter(cc)
	}
}

// runConnReader pumps raw frames from one client connection to its assigned
// worker. Blocking on a full worker queue is the first stage of the flow
// control chain: it stops this connection's reads and lets TCP push back.
func (c *clientIO) runConnReader(cc *clientConn, w *queue.Bounded[clientWork]) {
	defer c.wg.Done()
	defer func() {
		cc.replies.Close()
		_ = cc.conn.Close()
		c.mu.Lock()
		delete(c.conns, cc)
		c.mu.Unlock()
	}()
	for {
		frame, pooled, err := transport.ReadFrameOwned(cc.conn)
		if err != nil {
			return
		}
		if err := w.Put(nil, clientWork{frame: frame, pooled: pooled, cc: cc}); err != nil {
			transport.RecycleFrame(frame, pooled)
			return // module shutting down
		}
	}
}

// runConnWriter serializes and sends queued replies for one connection.
// Back-to-back replies (a pipelining client, a post-stall burst) coalesce
// into one flush when the transport buffers writes; each reply is encoded
// straight into the transport's write buffer (or a reused scratch) and its
// pooled struct is released after encoding.
func (c *clientIO) runConnWriter(cc *clientConn) {
	defer c.wg.Done()
	var mc msgConn
	mc.bind(cc.conn)
	for {
		reply, err := cc.replies.Take(nil)
		if err != nil {
			return
		}
		werr := mc.write(reply)
		wire.Release(reply)
		if werr != nil {
			return
		}
		if mc.buffered() {
			for {
				next, ok := cc.replies.TryTake()
				if !ok {
					break
				}
				werr = mc.write(next)
				wire.Release(next)
				if werr != nil {
					return
				}
			}
			if err := mc.flush(); err != nil {
				return
			}
		}
	}
}

// runWorker is one ClientIO thread: deserialize, consult the reply cache,
// and either answer directly or push the request toward the Batcher. The
// worker owns the frame buffer: a request bound for the Batcher is Retained
// (its payload copied out) before the frame is recycled; a request answered
// or dropped here dies with it and its struct goes back to the pool.
func (c *clientIO) runWorker(q *queue.Bounded[clientWork], th *profiling.Thread) {
	defer c.wg.Done()
	th.Transition(profiling.StateBusy)
	defer th.Transition(profiling.StateOther)
	for {
		work, err := q.Take(th)
		if err != nil {
			return
		}
		msg, err := wire.Unmarshal(work.frame)
		if err != nil {
			transport.RecycleFrame(work.frame, work.pooled)
			continue // malformed frame: drop
		}
		if rd, ok := msg.(*wire.ClientRead); ok {
			enqueued := c.handleRead(rd, work.cc)
			transport.RecycleFrame(work.frame, work.pooled)
			if !enqueued {
				wire.Release(rd)
			}
			continue
		}
		if rc, ok := msg.(*wire.Reconfig); ok {
			c.handleReconfig(rc, work.cc)
			transport.RecycleFrame(work.frame, work.pooled)
			continue
		}
		req, ok := msg.(*wire.ClientRequest)
		if !ok {
			wire.Release(msg)
			transport.RecycleFrame(work.frame, work.pooled)
			continue
		}
		enqueued := c.handleRequest(req, work.cc, th)
		transport.RecycleFrame(work.frame, work.pooled)
		if !enqueued {
			wire.Release(req)
		}
	}
}

// handleRequest implements the per-request ClientIO logic of Sec. III-B. It
// reports whether req was handed to the Batcher pipeline (which then owns
// the struct until the batch encode); a false return leaves the caller
// owning a request whose payload still borrows from the frame.
func (c *clientIO) handleRequest(req *wire.ClientRequest, cc *clientConn, th *profiling.Thread) bool {
	r := c.r
	if req.ClientID == wire.ConfigClientID {
		return false // reserved for ordered config commands; never a client's ID
	}
	// Remember where to send this client's replies.
	r.registry.set(req.ClientID, cc)

	cached, status := r.replyCache.Lookup(th, req.ClientID, req.Seq)
	switch status {
	case replycache.StatusCached:
		reply := wire.NewClientReply()
		reply.ClientID, reply.Seq = req.ClientID, req.Seq
		reply.OK, reply.Redirect, reply.Payload = true, wire.NoRedirect, cached
		c.reply(cc, reply)
		return false
	case replycache.StatusStale:
		return false // older than the last executed request: nothing to say
	case replycache.StatusNew:
	}
	// Route to an ordering group by conflict key, then gate on that group's
	// leadership (groups normally share a leader; per-group hints keep
	// redirects correct even when views drift apart).
	g := r.groups[r.groupFor(req.Payload)]
	if !g.isLeader.Load() {
		reply := wire.NewClientReply()
		reply.ClientID, reply.Seq = req.ClientID, req.Seq
		reply.Redirect = g.leaderHint.Load()
		c.reply(cc, reply)
		// Wake the group's Protocol thread: if its view lags group 0's
		// (a missed suspicion), the wake-up lets it re-synchronize and —
		// when this replica leads the current view — claim the group, so
		// clients are not bounced to a dead leader forever.
		_, _ = g.dispatchQ.TryPut(event{kind: evProposalReady})
		return false
	}
	// The request outlives the frame from here (RequestQueue → Batcher):
	// copy the payload out before the caller recycles the frame.
	wire.Retain(req)
	// Blocking put: backpressure propagates to this worker, then to the
	// connection readers feeding it (Sec. V-E).
	if err := g.requestQ.Put(th, req); err != nil {
		return false // queue closed on shutdown; the caller reclaims the struct
	}
	return true
}

// handleRead routes one read-only request onto the read path (reads.go).
// Reads never enter the ordering pipeline and bypass the reply cache (they
// are idempotent); one the replica cannot serve is bounced — !OK plus the
// leader hint — and the client falls back to an ordered Execute. Reports
// whether the pooled struct was handed off.
func (c *clientIO) handleRead(rd *wire.ClientRead, cc *clientConn) bool {
	r := c.r
	r.registry.set(rd.ClientID, cc)
	wire.Retain(rd) // the read outlives the frame in the ReadManager
	if ok, _ := r.reads.q.TryPut(readEvent{kind: rSubmit, req: rd, cc: cc}); ok {
		return true
	}
	// Read path overloaded: bounce rather than block the worker.
	reply := wire.NewClientReply()
	reply.ClientID, reply.Seq = rd.ClientID, rd.Seq
	reply.Redirect = r.groups[0].leaderHint.Load()
	c.reply(cc, reply)
	return false
}

// handleReconfig serves an administrative add/remove request. The blocking
// part — waiting for the config command to commit — runs on its own
// goroutine, never on a worker thread. A non-leader answers with a redirect,
// exactly like a write; success carries the committed topology as payload.
func (c *clientIO) handleReconfig(m *wire.Reconfig, cc *clientConn) {
	r := c.r
	if !r.groups[0].isLeader.Load() {
		reply := wire.NewClientReply()
		reply.ClientID, reply.Seq = m.ClientID, m.Seq
		reply.Redirect = r.groups[0].leaderHint.Load()
		c.reply(cc, reply)
		return
	}
	remove, peerAddr, clientAddr := int(m.Remove), m.PeerAddr, m.ClientAddr
	clientID, seq := m.ClientID, m.Seq
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		var (
			t   *wire.Topology
			err error
		)
		if remove < 0 {
			t, err = r.AddReplica(peerAddr, clientAddr)
		} else {
			t, err = r.RemoveReplica(remove)
		}
		reply := wire.NewClientReply()
		reply.ClientID, reply.Seq = clientID, seq
		reply.Redirect = wire.NoRedirect
		if err != nil {
			reply.Payload = []byte(err.Error())
		} else {
			reply.OK = true
			reply.Payload = wire.EncodeTopology(t)
		}
		c.reply(cc, reply)
	}()
}

// broadcastTopology pushes a newly committed topology to every connected
// client (best-effort: a client that misses it learns from the greeting on
// its next reconnect, or from the epoch fence bouncing its next request).
func (c *clientIO) broadcastTopology(t *wire.Topology) {
	c.mu.Lock()
	conns := make([]*clientConn, 0, len(c.conns))
	for cc := range c.conns {
		conns = append(conns, cc)
	}
	c.mu.Unlock()
	for _, cc := range conns {
		_, _ = cc.replies.TryPut(&wire.TopoUpdate{Topo: *t})
	}
}

// reply enqueues a reply without blocking; a stalled client loses replies
// and must retry (its request stays deduplicated by the reply cache).
func (c *clientIO) reply(cc *clientConn, reply *wire.ClientReply) {
	if ok, _ := cc.replies.TryPut(reply); ok {
		c.r.repliesSent.Add(1)
	} else {
		wire.Release(reply)
	}
}

// close shuts the module down: stop accepting, close every connection, stop
// the workers, and wait for all goroutines.
func (c *clientIO) close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.closed = true
	conns := make([]*clientConn, 0, len(c.conns))
	for cc := range c.conns {
		conns = append(conns, cc)
	}
	c.mu.Unlock()

	_ = c.listener.Close()
	for _, cc := range conns {
		_ = cc.conn.Close()
		cc.replies.Close()
	}
	for _, w := range c.workers {
		w.Close()
	}
	c.wg.Wait()
}
