package executor

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gosmr/internal/profiling"
)

// command is one entry of a synthetic decided log.
type command struct {
	index int
	keys  []string // nil = global
}

// recorder accumulates what an executed log looks like: per-key command
// order, plus the completed-command count observed by each global command.
// The mutex only provides memory safety — ordering is the executor's job.
type recorder struct {
	mu      sync.Mutex
	perKey  map[string][]int
	applied int
	globals []int
}

func newRecorder() *recorder { return &recorder{perKey: make(map[string][]int)} }

func (r *recorder) apply(c command) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, k := range c.keys {
		r.perKey[k] = append(r.perKey[k], c.index)
	}
	if len(c.keys) == 0 {
		r.globals = append(r.globals, r.applied)
	}
	r.applied++
}

// randomLog builds a reproducible mixed-conflict workload: mostly single-key
// commands over a small key space, some two-key commands, a few globals.
func randomLog(seed int64, n int) []command {
	rng := rand.New(rand.NewSource(seed))
	log := make([]command, 0, n)
	for i := range n {
		c := command{index: i}
		switch p := rng.Intn(100); {
		case p < 5: // global
		case p < 20: // two keys
			c.keys = []string{
				fmt.Sprintf("k%d", rng.Intn(16)),
				fmt.Sprintf("k%d", rng.Intn(16)),
			}
		default:
			c.keys = []string{fmt.Sprintf("k%d", rng.Intn(16))}
		}
		log = append(log, c)
	}
	return log
}

// keysFor adapts the synthetic log to the executor's Keys function: requests
// are the decimal command index, resolved against the log.
func keysFor(log []command) func([]byte) []string {
	return func(req []byte) []string {
		var i int
		fmt.Sscanf(string(req), "%d", &i)
		return log[i].keys
	}
}

// replay runs the log through an executor with the given worker count.
func replay(t *testing.T, log []command, workers int) *recorder {
	t.Helper()
	rec := newRecorder()
	e := New(Config{Workers: workers, Keys: keysFor(log)})
	e.Start()
	for _, c := range log {
		c := c
		e.Submit(nil, []byte(fmt.Sprintf("%d", c.index)), func(*profiling.Thread) {
			rec.apply(c)
		})
	}
	e.Quiesce(nil)
	e.Stop()
	return rec
}

// TestReplayDeterminism replays the same randomized mixed-conflict log at
// worker counts 1, 2 and 8 and requires identical per-key execution orders
// — the executor-level half of the determinism guarantee (every conflicting
// pair executes in log order regardless of parallelism).
func TestReplayDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 42, 20260730} {
		log := randomLog(seed, 500)
		base := replay(t, log, 1)
		for _, workers := range []int{2, 8} {
			got := replay(t, log, workers)
			if !reflect.DeepEqual(base.perKey, got.perKey) {
				t.Errorf("seed %d: per-key order diverged between 1 and %d workers", seed, workers)
			}
			if got.applied != len(log) {
				t.Errorf("seed %d workers %d: applied %d of %d", seed, workers, got.applied, len(log))
			}
		}
	}
}

// TestGlobalCommandsAreBarriers checks that a global (keyless) command
// observes exactly the commands that precede it in the log: all dispatched
// work quiesced, nothing later started.
func TestGlobalCommandsAreBarriers(t *testing.T) {
	log := randomLog(7, 400)
	rec := replay(t, log, 8)
	want := []int{}
	for _, c := range log {
		if len(c.keys) == 0 {
			want = append(want, c.index)
		}
	}
	if len(rec.globals) != len(want) {
		t.Fatalf("globals executed = %d, want %d", len(rec.globals), len(want))
	}
	for i, observed := range rec.globals {
		// At the barrier, every earlier command has completed and none after
		// has been dispatched, so the completed count equals the command's
		// own log position.
		if observed != want[i] {
			t.Errorf("global #%d observed %d completed commands, want %d", i, observed, want[i])
		}
	}
}

// TestConflictingPairsInLogOrder hammers a single hot key from many
// interleaved commands and checks strict log order.
func TestConflictingPairsInLogOrder(t *testing.T) {
	log := make([]command, 300)
	for i := range log {
		key := "hot"
		if i%3 == 0 {
			key = fmt.Sprintf("cold%d", i%7)
		}
		log[i] = command{index: i, keys: []string{key}}
	}
	rec := replay(t, log, 8)
	hot := rec.perKey["hot"]
	for i := 1; i < len(hot); i++ {
		if hot[i-1] >= hot[i] {
			t.Fatalf("hot-key order violated: %d before %d", hot[i-1], hot[i])
		}
	}
}

// TestSubmitToOrdersBehindWorkerFIFO covers the duplicate-resend contract:
// a task submitted to a specific worker runs after everything already queued
// there (the scheduler orders a retry's reply resend behind the original
// execution this way).
func TestSubmitToOrdersBehindWorkerFIFO(t *testing.T) {
	e := New(Config{Workers: 4, Keys: func(req []byte) []string { return []string{string(req)} }})
	e.Start()
	defer e.Stop()
	var mu sync.Mutex
	var order []string
	record := func(label string, delay time.Duration) Task {
		return func(*profiling.Thread) {
			time.Sleep(delay)
			mu.Lock()
			order = append(order, label)
			mu.Unlock()
		}
	}
	w := e.Submit(nil, []byte("k"), record("original", 20*time.Millisecond))
	if w == Inline {
		t.Fatal("keyed submit ran inline")
	}
	e.SubmitTo(nil, w, record("resend", 0))
	e.SubmitTo(nil, Inline, record("inline", 0)) // Inline runs immediately
	e.Quiesce(nil)
	mu.Lock()
	defer mu.Unlock()
	want := []string{"inline", "original", "resend"}
	if !reflect.DeepEqual(order, want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
}

func TestSequentialFallbackRunsInline(t *testing.T) {
	for _, cfg := range []Config{
		{Workers: 0, Keys: func([]byte) []string { return nil }},
		{Workers: 8, Keys: nil}, // no conflict declaration: sequential
		{Workers: 1, Keys: func([]byte) []string { return []string{"k"} }},
	} {
		e := New(cfg)
		if e.Parallel() {
			t.Fatalf("config %+v produced a parallel executor", cfg)
		}
		e.Start()
		ran := false
		e.Submit(nil, []byte("x"), func(*profiling.Thread) { ran = true })
		if !ran {
			t.Error("sequential Submit did not run inline")
		}
		e.Quiesce(nil)
		e.Stop()
		if stats := e.QueueStats(); stats != nil {
			t.Errorf("sequential executor reported queue stats %v", stats)
		}
	}
}

func TestQueueStatsAndCounters(t *testing.T) {
	e := New(Config{
		Workers: 4,
		Keys: func(req []byte) []string {
			if len(req) == 0 {
				return nil // global
			}
			return []string{string(req)}
		},
		Profiling: profiling.NewRegistry(),
	})
	e.Start()
	for i := range 40 {
		e.Submit(nil, []byte(fmt.Sprintf("key%d", i)), func(*profiling.Thread) {})
	}
	e.Submit(nil, nil, func(*profiling.Thread) {}) // global
	e.Quiesce(nil)
	e.Stop()
	stats := e.QueueStats()
	if len(stats) != 4 {
		t.Fatalf("QueueStats = %v, want 4 entries", stats)
	}
	for name := range stats {
		if !strings.HasPrefix(name, "ExecutorQueue-") {
			t.Errorf("unexpected queue name %q", name)
		}
	}
	st := e.Stats()
	if st.Dispatched != 40 || st.Barriers != 1 || st.Joins != 0 || st.Fences != 0 {
		t.Errorf("Stats = %+v, want Dispatched=40 Barriers=1 and no joins/fences", st)
	}
	e.ResetQueueStats()
}

// distinctWorkerKeys returns n keys that hash to n distinct workers of e,
// one per worker in ascending worker order.
func distinctWorkerKeys(e *Executor, n int) []string {
	byWorker := make(map[int]string)
	for i := 0; len(byWorker) < n; i++ {
		k := fmt.Sprintf("wk-%d", i)
		w := e.workerFor(k)
		if _, ok := byWorker[w]; !ok && w < n {
			byWorker[w] = k
		}
	}
	keys := make([]string, n)
	for w, k := range byWorker {
		keys[w] = k
	}
	return keys
}

// TestMultiKeyPropertyVsSerialOracle is the dependency-scheduler property
// test: random logs of 1–3-key commands (over a small keyspace, so
// cross-worker key sets are common) execute against a PLAIN unsynchronized
// state slice — per-key mutual exclusion is the executor's job, so under
// -race any scheduling bug is a detected data race — and the final state
// must equal a serial application of the log. The per-key mix folds in the
// command index, so any conflicting reordering changes the value.
func TestMultiKeyPropertyVsSerialOracle(t *testing.T) {
	const keyspace = 12
	mix := func(v uint64, index int) uint64 {
		h := v ^ uint64(index+1)
		h *= 1099511628211
		return h
	}
	for _, seed := range []int64{3, 99, 20260808} {
		rng := rand.New(rand.NewSource(seed))
		type cmd struct{ keys []int }
		log := make([]cmd, 800)
		for i := range log {
			n := 1 + rng.Intn(3)
			ks := make([]int, n)
			for j := range ks {
				ks[j] = rng.Intn(keyspace)
			}
			log[i] = cmd{keys: ks}
		}
		// Serial oracle.
		want := make([]uint64, keyspace)
		for i, c := range log {
			for _, k := range c.keys {
				want[k] = mix(want[k], i)
			}
		}
		for _, workers := range []int{2, 3, 8} {
			state := make([]uint64, keyspace) // deliberately unsynchronized
			keyNames := make([]string, keyspace)
			for k := range keyNames {
				keyNames[k] = fmt.Sprintf("key-%d", k)
			}
			e := New(Config{Workers: workers, Keys: func(req []byte) []string {
				var i int
				fmt.Sscanf(string(req), "%d", &i)
				out := make([]string, len(log[i].keys))
				for j, k := range log[i].keys {
					out[j] = keyNames[k]
				}
				return out
			}})
			e.Start()
			for i := range log {
				i := i
				e.Submit(nil, []byte(fmt.Sprintf("%d", i)), func(*profiling.Thread) {
					for _, k := range log[i].keys {
						state[k] = mix(state[k], i)
					}
				})
			}
			e.Quiesce(nil)
			e.Stop()
			if !reflect.DeepEqual(want, state) {
				t.Errorf("seed %d workers %d: parallel state diverged from serial oracle\n got %v\nwant %v",
					seed, workers, state, want)
			}
		}
	}
}

// TestMultiKeyDoesNotBlockDisjointWorkers is the conflict-cliff regression
// test: a 2-key command whose keys span workers A and B must not stop worker
// C. Worker A is wedged behind a gated task, so the join cannot execute; a
// command on C's key must still complete. (Under the old quiesce-everything
// design the scheduler itself blocked inside Submit of the 2-key command and
// the C command was never even dispatched.)
func TestMultiKeyDoesNotBlockDisjointWorkers(t *testing.T) {
	e := New(Config{Workers: 3, Keys: func(req []byte) []string {
		return strings.Split(string(req), ",")
	}})
	e.Start()
	defer e.Stop()
	keys := distinctWorkerKeys(e, 3)
	a, b, c := keys[0], keys[1], keys[2]

	gate := make(chan struct{})
	joined := make(chan struct{})
	disjoint := make(chan struct{})
	e.Submit(nil, []byte(a), func(*profiling.Thread) { <-gate }) // wedge worker A
	e.Submit(nil, []byte(a+","+b), func(*profiling.Thread) { close(joined) })
	e.Submit(nil, []byte(c), func(*profiling.Thread) { close(disjoint) })

	select {
	case <-disjoint:
	case <-time.After(5 * time.Second):
		t.Fatal("disjoint-key command blocked behind a multi-key command that does not touch its worker")
	}
	select {
	case <-joined:
		t.Fatal("join executed while one involved worker was still busy")
	default:
	}
	close(gate)
	e.Quiesce(nil)
	select {
	case <-joined:
	default:
		t.Fatal("multi-key command never executed")
	}
	st := e.Stats()
	if st.Joins != 1 || st.Fences != 2 || st.Barriers != 0 {
		t.Errorf("Stats = %+v, want Joins=1 Fences=2 Barriers=0", st)
	}
	if st.JoinWaits != 1 {
		// Worker B's fence arrived while A was wedged, so it must have parked.
		t.Errorf("JoinWaits = %d, want 1", st.JoinWaits)
	}
}

// TestSubmitHotPathAllocs is the scheduler hot-path allocs guard (the PR 4
// codec-guard discipline applied to dependency scheduling): steady-state
// Submit of a 2-key cross-worker command — pooled join node, by-value
// fences, scratch worker set — must not allocate beyond the occasional
// GC-emptied pool refill. The Keys func and task closure are reused so the
// measurement isolates the scheduler itself.
func TestSubmitHotPathAllocs(t *testing.T) {
	e := New(Config{Workers: 4, Keys: func(req []byte) []string {
		return multiKeyScratch
	}})
	e.Start()
	defer e.Stop()
	multiKeyScratch = distinctWorkerKeys(e, 2)
	task := Task(func(*profiling.Thread) {})
	req := []byte("txn")
	submit := func() {
		for range 16 {
			e.Submit(nil, req, task)
		}
		e.Quiesce(nil)
	}
	submit() // warm the pool and the workers
	allocs := testing.AllocsPerRun(100, submit) / 16
	if allocs > 0.5 {
		t.Errorf("multi-key Submit allocates %.2f allocs/op in steady state, want ~0", allocs)
	}
	t.Logf("multi-key Submit: %.3f allocs/op", allocs)
}

// multiKeyScratch is TestSubmitHotPathAllocs's reused key slice (package
// scope so the Keys closure itself captures nothing).
var multiKeyScratch []string

// TestStopUnblocksAndDropsPending verifies shutdown liveness: Stop while
// tasks are queued drains them, and Submit after Stop neither runs the task
// nor breaks a later Quiesce.
func TestStopUnblocksAndDropsPending(t *testing.T) {
	e := New(Config{Workers: 2, Keys: func(req []byte) []string { return []string{string(req)} }})
	e.Start()
	var mu sync.Mutex
	ran := 0
	for i := range 100 {
		e.Submit(nil, []byte(fmt.Sprintf("k%d", i%4)), func(*profiling.Thread) {
			mu.Lock()
			ran++
			mu.Unlock()
		})
	}
	e.Stop() // drains the 100 queued tasks
	mu.Lock()
	if ran != 100 {
		t.Errorf("ran = %d before Stop returned, want 100", ran)
	}
	mu.Unlock()
	e.Submit(nil, []byte("k0"), func(*profiling.Thread) { t.Error("task ran after Stop") })
	e.Quiesce(nil) // must not hang on the dropped task
	e.Stop()       // idempotent
}
