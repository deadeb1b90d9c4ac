// Package executor implements the replica's execution stage as a
// deterministic, conflict-aware multi-worker scheduler — the parallel
// successor to the paper's single ServiceManager thread (Sec. V-D).
//
// The paper scales everything *around* execution (ClientIO pools, Batcher,
// Protocol, per-peer ReplicaIO) but applies decided requests on one thread,
// which caps replica throughput once ordering is no longer the bottleneck.
// Following the parallel-SMR line of work (Marandi et al., "Rethinking
// State-Machine Replication for Parallelism"; Alchieri et al., "Early
// Scheduling in Parallel State Machine Replication"), this package executes
// independent requests concurrently while keeping every replica's observable
// state equivalent to a serial execution of the log.
//
// # Scheduling model
//
// A single scheduler (the ServiceManager thread) drains decided requests in
// log order and dispatches each one by its declared conflict keys. Every key
// is statically hashed to one of N workers, so the per-key dependency tail —
// "the last task that touched this key" — is always the tail of that worker's
// FIFO: enqueueing in log order is all the dependency tracking a key needs.
// Three cases follow from a request's worker set:
//
//   - Single worker (all keys hash to one worker): append to that worker's
//     FIFO. Two conflicting requests share a key, hash to the same worker,
//     and execute in log order.
//
//   - Several workers (a multi-key request whose keys span workers): the
//     request becomes a pooled JOIN NODE with a dependency counter, and a
//     lightweight FENCE task is enqueued into each involved worker's FIFO —
//     and only those. A fence reaching the head of its queue means that
//     worker has finished every earlier conflicting request; the LAST fence
//     to arrive executes the request on its worker, then releases the other
//     involved workers to continue their queues. Workers whose keys the
//     request does not touch never stop (see the regression test): a stream
//     of 2-key transactions pipelines instead of barriering the world, which
//     is what kills the conflict cliff the PR 4 bench measured.
//
//   - No keys at all (no Keys function, or Keys returned nil/empty — an
//     unparseable or whole-state command): the request is "global". The
//     scheduler quiesces every worker and executes it inline, a full
//     barrier. This is the only barrier case.
//
// Deadlock freedom: fences are enqueued by the single scheduler, for all of
// a join's workers, before the next request is scheduled, so every worker
// sees fences in one consistent log order — waits-for cycles cannot form.
//
// Non-conflicting requests commute, so any interleaving of the worker FIFOs
// yields the same service state; conflicting requests are serialized per
// worker in log order (or through a join's fences for cross-worker key
// sets). Every replica therefore converges to the same state — see the
// determinism tests.
//
// The executor deliberately orders only by conflict keys. Decisions that
// must be deterministic but span keys — per-client at-most-once
// classification (new vs duplicate vs stale) — belong to the scheduler,
// which makes them in log order before dispatch and uses SubmitTo to order
// a duplicate's reply resend behind its original execution (for a multi-key
// original, behind one of its fences, which completes only after the join
// executed).
//
// When the service does not declare conflicts (no Keys function) or only one
// worker is configured, the executor degrades to executing inline on the
// scheduler thread, byte-for-byte the behavior of the original single
// ServiceManager thread.
package executor

import (
	"fmt"
	"sync"
	"sync/atomic"

	"gosmr/internal/profiling"
	"gosmr/internal/queue"
)

// ConflictAware is the optional service extension consumed by the executor:
// a service that can declare, per request, the set of state keys the request
// reads or writes. Two requests conflict iff their key sets intersect; the
// executor guarantees conflicting requests execute in log order. Returning
// nil (or an empty set) marks the request "global": it is serialized against
// every other request. Keys must be deterministic and must not depend on
// service state.
type ConflictAware interface {
	Keys(req []byte) []string
}

// Task is one scheduled unit of execution. Run receives the profiling thread
// of whichever goroutine executes it (a worker, or the scheduler for
// sequential/global execution).
type Task func(th *profiling.Thread)

// Config configures an Executor.
type Config struct {
	// Workers is the number of execution goroutines. Values <= 1 select the
	// sequential fallback (no goroutines; Submit runs tasks inline).
	Workers int
	// Keys extracts a request's conflict keys. nil selects the sequential
	// fallback regardless of Workers.
	Keys func(req []byte) []string
	// QueueCap bounds each worker's input queue (default 256); a full queue
	// blocks the scheduler, propagating backpressure to the DecisionQueue.
	QueueCap int
	// Profiling optionally registers the worker threads (Executor-i).
	Profiling *profiling.Registry
}

// item is one worker-queue entry: a plain task, or a fence referencing its
// join node. Passed by value through the queue channel, so enqueueing a
// fence allocates nothing.
type item struct {
	run  Task
	join *joinNode
}

// joinNode coordinates one multi-key request across its involved workers.
// arrive counts fences that have not reached the head of their queue yet;
// the fence that drops it to zero executes run on its own worker and wakes
// the others. refs counts fences still using the node at all; the last one
// out recycles it to the pool.
type joinNode struct {
	mu     sync.Mutex
	cond   sync.Cond
	arrive int
	refs   int
	done   bool
	run    Task
}

// joinPool recycles join nodes so steady-state multi-key scheduling does not
// allocate (asserted by TestSubmitHotPathAllocs and the CI allocs guard).
var joinPool = sync.Pool{New: func() any {
	j := &joinNode{}
	j.cond.L = &j.mu
	return j
}}

// Stats is the executor's scheduling counters (see Executor.Stats).
type Stats struct {
	// Dispatched counts items enqueued to worker FIFOs (plain tasks and
	// fences alike).
	Dispatched uint64
	// Barriers counts full quiesce-the-world barriers: keyless/global
	// commands.
	Barriers uint64
	// Joins counts multi-key commands scheduled as join nodes.
	Joins uint64
	// Fences counts fence tasks enqueued for those joins (sum over joins of
	// involved-worker-set sizes).
	Fences uint64
	// JoinWaits counts fences that arrived before their join's last fence
	// and parked their worker — the residual cross-worker wait the
	// dependency scheduler could not avoid (untouched workers never park).
	JoinWaits uint64
}

// Executor dispatches decided requests across worker goroutines. Submit and
// Quiesce must be called from a single scheduler goroutine; dispatch order is
// the deterministic log order that replicas agree on.
type Executor struct {
	keys    func(req []byte) []string
	queues  []*queue.Bounded[item]
	threads []*profiling.Thread

	// wset/wseen are the scheduler's reused scratch for computing a
	// request's distinct worker set without allocating (single scheduler
	// goroutine, so plain fields suffice).
	wset  []int
	wseen []bool

	// inflight counts dispatched-but-unfinished items. Add is called only by
	// the scheduler goroutine (which is also the only Wait caller), Done by
	// workers, so the WaitGroup reuse is race-free.
	inflight sync.WaitGroup
	workers  sync.WaitGroup
	stopOnce sync.Once

	// Counters (read via Stats). Atomics so stats snapshots can be taken
	// from any goroutine mid-run; all but joinWaits are written only by the
	// scheduler.
	dispatched atomic.Uint64
	barriers   atomic.Uint64
	joins      atomic.Uint64
	fences     atomic.Uint64
	joinWaits  atomic.Uint64 // written by workers
}

// New builds an executor. A nil Keys function or Workers <= 1 yields a
// sequential executor that never spawns goroutines.
func New(cfg Config) *Executor {
	e := &Executor{keys: cfg.Keys}
	if cfg.Workers <= 1 || cfg.Keys == nil {
		return e
	}
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 256
	}
	e.queues = make([]*queue.Bounded[item], cfg.Workers)
	e.threads = make([]*profiling.Thread, cfg.Workers)
	e.wset = make([]int, 0, cfg.Workers)
	e.wseen = make([]bool, cfg.Workers)
	for i := range e.queues {
		e.queues[i] = queue.NewBounded[item](fmt.Sprintf("ExecutorQueue-%d", i), cfg.QueueCap)
		e.threads[i] = cfg.Profiling.Register(fmt.Sprintf("Executor-%d", i))
	}
	return e
}

// Parallel reports whether the executor dispatches to worker goroutines
// (false for the sequential fallback).
func (e *Executor) Parallel() bool { return len(e.queues) > 0 }

// Workers returns the number of worker goroutines (0 when sequential).
func (e *Executor) Workers() int { return len(e.queues) }

// Start launches the worker goroutines. It is a no-op when sequential.
func (e *Executor) Start() {
	for i := range e.queues {
		e.workers.Add(1)
		go e.run(i)
	}
}

// run is one worker's loop: drain the FIFO, execute, acknowledge.
func (e *Executor) run(i int) {
	defer e.workers.Done()
	th := e.threads[i]
	th.Transition(profiling.StateBusy)
	defer th.Transition(profiling.StateOther)
	for {
		it, err := e.queues[i].Take(th)
		if err != nil {
			return // closed and drained
		}
		if it.join != nil {
			e.runFence(th, it.join)
		} else {
			it.run(th)
		}
		e.inflight.Done()
	}
}

// runFence processes one fence at the head of a worker's queue: every
// earlier request conflicting with the join's keys on this worker has
// finished. The last fence to arrive executes the join's request here; an
// earlier arrival parks until the execution completes, keeping this worker's
// later (conflicting) queue entries correctly behind the multi-key request.
// The last fence to finish with the node recycles it.
func (e *Executor) runFence(th *profiling.Thread, j *joinNode) {
	j.mu.Lock()
	j.arrive--
	if j.arrive == 0 && !j.done {
		run := j.run
		j.mu.Unlock()
		run(th)
		j.mu.Lock()
		j.done = true
		j.cond.Broadcast()
	} else if !j.done {
		e.joinWaits.Add(1)
		th.Transition(profiling.StateWaiting)
		for !j.done {
			j.cond.Wait()
		}
		th.Transition(profiling.StateBusy)
	}
	j.refs--
	last := j.refs == 0
	j.mu.Unlock()
	if last {
		j.run = nil
		joinPool.Put(j)
	}
}

// KeyHash is the conflict-key hash shared by every key-routed stage (worker
// assignment here, ordering-group assignment in core): FNV-1a, stable across
// replicas, processes, and architectures, so the same key routes identically
// cluster-wide. Both sites must use the same function — conflicting requests
// serialize correctly only because their key lands in the same place on
// every replica.
func KeyHash(key string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h
}

// workerFor hashes a conflict key to a worker index.
func (e *Executor) workerFor(key string) int {
	return int(KeyHash(key) % uint64(len(e.queues)))
}

// Inline is the pseudo-worker index Submit returns for tasks executed on the
// scheduler itself (sequential mode and global commands). SubmitTo accepts it
// and likewise runs inline.
const Inline = -1

// Submit schedules one request in log order and returns the worker index a
// later task can be ordered behind via SubmitTo to run after this request
// (Inline when it ran on the scheduler). For a multi-key request that is the
// first involved worker: its fence completes only after the join executed,
// so anything queued behind the fence is ordered behind the request. Submit
// must be called from the single scheduler goroutine. th is the scheduler's
// profiling thread; time blocked on a full worker queue is credited to it as
// waiting (backpressure).
func (e *Executor) Submit(th *profiling.Thread, req []byte, task Task) int {
	if !e.Parallel() {
		task(th)
		return Inline
	}
	keys := e.keys(req)
	// Distinct worker set, in first-key order (deterministic), no allocation.
	ws := e.wset[:0]
	for _, k := range keys {
		w := e.workerFor(k)
		if !e.wseen[w] {
			e.wseen[w] = true
			ws = append(ws, w)
		}
	}
	e.wset = ws
	for _, w := range ws {
		e.wseen[w] = false
	}
	switch {
	case len(ws) == 0:
		// Global command: full barrier. Wait for every dispatched task, then
		// execute inline so the command observes (and is observed by) a
		// fully serial prefix.
		e.Quiesce(th)
		e.barriers.Add(1)
		task(th)
		return Inline
	case len(ws) == 1:
		e.SubmitTo(th, ws[0], task)
		return ws[0]
	}
	// Multi-key: join node + one fence per involved worker. Untouched
	// workers are not involved and never stop.
	j := joinPool.Get().(*joinNode)
	j.arrive, j.refs, j.done, j.run = len(ws), len(ws), false, task
	e.joins.Add(1)
	for _, w := range ws {
		e.inflight.Add(1)
		if err := e.queues[w].Put(th, item{join: j}); err != nil {
			// Shutting down: this fence will never run. Balance the counters
			// and cancel the join so fences already enqueued release their
			// workers instead of waiting forever (the command is dropped,
			// like any Submit after Stop).
			e.inflight.Done()
			j.mu.Lock()
			j.arrive--
			j.refs--
			j.done = true
			j.cond.Broadcast()
			last := j.refs == 0
			j.mu.Unlock()
			if last {
				j.run = nil
				joinPool.Put(j)
			}
			continue
		}
		e.dispatched.Add(1)
		e.fences.Add(1)
	}
	return ws[0]
}

// SubmitTo enqueues a task to a specific worker's FIFO (or runs it inline
// for worker == Inline), bypassing key hashing. The scheduler uses it to
// order a request behind an earlier one whose worker assignment it recorded
// — e.g. a duplicate's reply resend behind its original execution.
func (e *Executor) SubmitTo(th *profiling.Thread, worker int, task Task) {
	if !e.Parallel() || worker == Inline {
		task(th)
		return
	}
	e.inflight.Add(1)
	if err := e.queues[worker].Put(th, item{run: task}); err != nil {
		// Shutting down: the task will never run. Balance the counter so a
		// concurrent Quiesce cannot hang.
		e.inflight.Done()
		return
	}
	e.dispatched.Add(1)
}

// Quiesce blocks until every dispatched task has finished executing. Called
// by the scheduler before snapshots, state installs, and global commands.
func (e *Executor) Quiesce(th *profiling.Thread) {
	if !e.Parallel() {
		return
	}
	th.Transition(profiling.StateWaiting)
	e.inflight.Wait()
	th.Transition(profiling.StateBusy)
}

// Stop closes the worker queues and waits for the workers to drain and exit.
// Safe to call more than once. Call it from the scheduler goroutine itself,
// after the scheduler's input is drained: closing the queues concurrently
// with an in-flight Submit has a narrow window where a task is accepted by a
// queue whose worker already exited — it would never run, and its inflight
// count would hang the next Quiesce. (A Submit issued after Stop returns is
// safe: it observes the closed queue and drops the task; a multi-key Submit
// additionally cancels its join so partially enqueued fences release.)
func (e *Executor) Stop() {
	e.stopOnce.Do(func() {
		for _, q := range e.queues {
			q.Close()
		}
	})
	e.workers.Wait()
}

// QueueStats returns the time-averaged length of each worker queue, keyed by
// queue name (ExecutorQueue-i) — the executor's extension of the paper's
// Table I statistics. Empty when sequential.
func (e *Executor) QueueStats() map[string]float64 {
	if !e.Parallel() {
		return nil
	}
	out := make(map[string]float64, len(e.queues))
	for _, q := range e.queues {
		out[q.Name()] = q.AvgLen()
	}
	return out
}

// ResetQueueStats restarts the per-worker queue averages.
func (e *Executor) ResetQueueStats() {
	for _, q := range e.queues {
		q.ResetStats()
	}
}

// Stats snapshots the scheduler counters. Safe from any goroutine; the
// counters are exact once the scheduler is idle (or stopped).
func (e *Executor) Stats() Stats {
	return Stats{
		Dispatched: e.dispatched.Load(),
		Barriers:   e.barriers.Load(),
		Joins:      e.joins.Load(),
		Fences:     e.fences.Load(),
		JoinWaits:  e.joinWaits.Load(),
	}
}
