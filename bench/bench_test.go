package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gosmr/internal/service"
	"gosmr/internal/transport"
	"gosmr/internal/vfs"
	"gosmr/internal/wire"
)

func TestPercentile(t *testing.T) {
	s := make([]int64, 100)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for _, c := range []struct {
		p    float64
		want int64
	}{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {1, 1}, {0.5, 1}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(1..100, %v) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %d, want 0", got)
	}
	big := make([]int64, 10000)
	for i := range big {
		big[i] = int64(i + 1)
	}
	if got := percentile(big, 99.9); got != 9990 {
		t.Errorf("percentile(1..10000, 99.9) = %d, want 9990", got)
	}
	if got := percentile([]int64{7}, 90); got != 7 {
		t.Errorf("percentile of one sample = %d, want 7", got)
	}
}

func TestMaxSupportedPercentile(t *testing.T) {
	// 1000 samples: the highest percentile with 10 samples beyond it is the
	// 99th (rank 990).
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	p, v, ok := maxSupportedPercentile(s)
	if !ok || p != 99 || v != 990 {
		t.Errorf("1000 samples: got p%v = %d ok=%v, want p99 = 990", p, v, ok)
	}
	if _, _, ok := maxSupportedPercentile(s[:10]); ok {
		t.Error("10 samples support no percentile, got one")
	}
	if p, v, ok := maxSupportedPercentile(s[:11]); !ok || v != 1 || math.Abs(p-100.0/11) > 1e-9 {
		t.Errorf("11 samples: got p%v = %d ok=%v, want p%.3f = 1", p, v, ok, 100.0/11)
	}
}

func TestWindowMedian(t *testing.T) {
	var w windowed
	for i := range 5 { // five quiet windows, one stalled, four empty
		w[i] = []int64{30, 10, 20}
	}
	w[5] = []int64{1000, 3000, 2000}
	if got := w.windowMedian(50); got != 20 {
		t.Errorf("median of window medians = %v, want 20: one stalled window must not move it", got)
	}
	if got := w.windowMedian(100); got != 30 {
		t.Errorf("median of window maxima = %v, want 30", got)
	}
	if all := w.merged(); len(all) != 18 || all[0] != 10 || all[17] != 3000 {
		t.Errorf("merged = %v, want 18 sorted samples from 10 to 3000", all)
	}
	var empty windowed
	if got := empty.windowMedian(90); got != 0 {
		t.Errorf("no samples: %v, want 0", got)
	}
}

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	var vs []float64
	for i := 10; i >= 1; i-- {
		vs = append(vs, float64(i))
	}
	q1, q2, q3 := quartiles(vs)
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	// statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
	if q1, q2, q3 := quartiles([]float64{1, 2}); q1 != 0.75 || q2 != 1.5 || q3 != 2.25 {
		t.Errorf("quartiles(1,2) = %v %v %v, want 0.75 1.5 2.25", q1, q2, q3)
	}
}

func TestPoissonSameSeedSameSchedule(t *testing.T) {
	take := func(seed int64) []int64 {
		p := newPoisson(seed, 20000, 1000)
		out := make([]int64, 2000)
		for i := range out {
			out[i] = p.next
			p.advance()
		}
		return out
	}
	a, b, c := take(42), take(42), take(43)
	same, differs := true, false
	for i := range a {
		same = same && a[i] == b[i]
		differs = differs || a[i] != c[i]
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule goes backwards at %d", i)
		}
	}
	if !same {
		t.Error("same seed gave two schedules")
	}
	if !differs {
		t.Error("different seeds gave one schedule")
	}
	// 2000 arrivals at 20 000/s span about 100 ms.
	if span := time.Duration(a[len(a)-1] - a[0]); span < 80*time.Millisecond || span > 120*time.Millisecond {
		t.Errorf("2000 arrivals at 20000/s span %v, want about 100ms", span)
	}
}

// The scheduler must account every due time exactly once, in order, with a
// lateness that is never negative — here with no free client, so every
// arrival lands in the backlog where its due time can be inspected.
func TestSchedulerLatenessAccounting(t *testing.T) {
	g := &gen{epoch: time.Now()}
	start := g.now()
	end := start + int64(20*time.Millisecond)
	late := g.schedule(0, newPoisson(7, 20000, start), end)
	backlog := g.pools[0].backlog
	if len(late) == 0 || len(late) != len(backlog) {
		t.Fatalf("%d lateness samples for %d scheduled arrivals", len(late), len(backlog))
	}
	want := newPoisson(7, 20000, start)
	for i, due := range backlog {
		if due != want.next {
			t.Fatalf("arrival %d due at %d, schedule says %d", i, due, want.next)
		}
		want.advance()
		if late[i] < 0 {
			t.Fatalf("arrival %d processed %d ns before it was due", i, -late[i])
		}
	}
	if want.next < end {
		t.Errorf("scheduler stopped at %d arrivals with one due before the end", len(backlog))
	}
}

// plainConn hides every optional extension of the connection it wraps.
type plainConn struct{ transport.FrameConn }

type plainNet struct{ transport.Network }

func (n plainNet) Dial(addr string) (transport.FrameConn, error) {
	c, err := n.Network.Dial(addr)
	if err != nil {
		return nil, err
	}
	return plainConn{c}, nil
}

func TestCountingNetworkForwardsExtensions(t *testing.T) {
	for name, base := range map[string]transport.Network{"tcp": &transport.TCP{}, "inproc": transport.NewInproc(0)} {
		t.Run(name, func(t *testing.T) {
			addr := "peer-0"
			if name == "tcp" {
				ports, err := freePorts(1)
				if err != nil {
					t.Fatal(err)
				}
				addr = ports[0]
			}
			nc := &netCounters{}
			cn := &countingNet{base: base, c: nc, peers: map[string]bool{addr: true}}
			l, err := cn.Listen(addr)
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			accepted := make(chan transport.FrameConn, 1)
			go func() {
				c, err := l.Accept()
				if err == nil {
					accepted <- c
				}
			}()
			cli, err := cn.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer cli.Close()
			bw, okB := cli.(transport.BatchWriter)
			mw, okM := cli.(transport.MessageWriter)
			_, okP := cli.(transport.PooledReader)
			if !okB || !okM || !okP {
				t.Fatalf("wrapped %s connection lost an extension: BatchWriter=%v MessageWriter=%v PooledReader=%v", name, okB, okM, okP)
			}
			frame := []byte("0123456789")
			msg := &wire.Accept{View: 1, ID: 2}
			if err := cli.WriteFrame(frame); err != nil {
				t.Fatal(err)
			}
			if err := bw.WriteFrameNoFlush(frame); err != nil {
				t.Fatal(err)
			}
			if err := mw.WriteMessageNoFlush(msg); err != nil {
				t.Fatal(err)
			}
			if err := bw.Flush(); err != nil {
				t.Fatal(err)
			}
			srv := <-accepted
			defer srv.Close()
			for i, want := range [][]byte{frame, frame, wire.Marshal(msg)} {
				got, pooled, err := transport.ReadFrameOwned(srv)
				if err != nil {
					t.Fatal(err)
				}
				if !pooled {
					t.Errorf("frame %d: wrapped accepted connection did not take the pooled read path", i)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("frame %d arrived as %q, want %q", i, got, want)
				}
			}
			wantBytes := int64(2*(len(frame)+frameHeaderBytes) + wire.Size(msg) + frameHeaderBytes)
			if s := nc.snapshot(); s.peerFrames != 3 || s.peerBytes != wantBytes || s.clientBytes != 0 {
				t.Errorf("counted %+v, want 3 peer frames, %d peer bytes, no client bytes", s, wantBytes)
			}
		})
	}
	// A connection without the extensions must not gain them, and a
	// non-peer address is client traffic, counted in both directions.
	in := transport.NewInproc(0)
	nc := &netCounters{}
	cn := &countingNet{base: plainNet{in}, c: nc, peers: map[string]bool{}}
	l, err := cn.Listen("client-0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		if c, err := l.Accept(); err == nil {
			if f, err := c.ReadFrame(); err == nil {
				_ = c.WriteFrame(f)
			}
		}
	}()
	cli, err := cn.Dial("client-0")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, ok := cli.(transport.BatchWriter); ok {
		t.Error("wrapping gave a plain connection a BatchWriter")
	}
	if err := cli.WriteFrame([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	// Dialer writes and reads 8 bytes each; the accepting side the same.
	if s := nc.snapshot(); s.clientBytes != 4*(4+frameHeaderBytes) || s.peerFrames != 0 {
		t.Errorf("counted %+v, want %d client bytes and no peer frames", s, 4*(4+frameHeaderBytes))
	}
}

func TestCountingFS(t *testing.T) {
	fc := &fsCounters{}
	fs := countingFS{FS: vfs.OS, c: fc}
	dir := t.TempDir()
	f, err := fs.OpenFile(filepath.Join(dir, "seg"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.(interface{ Fd() uintptr }); !ok {
		t.Error("wrapped file hides Fd(), so WAL preallocation would stop using fallocate")
	}
	if _, err := f.Write(make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(dir); err != nil {
		t.Fatal(err)
	}
	s := fc.snapshot()
	if s.writeBytes != 100 || s.syncs != 2 {
		t.Errorf("counted %+v, want 100 bytes and 2 syncs (file + directory)", s)
	}
	if d := fc.syncsBetween(0, s.syncs); len(d) != 2 || d[0] <= 0 {
		t.Errorf("sync durations %v, want two positive values", d)
	}
	if _, err := fs.OpenFile(filepath.Join(dir, "missing", "x"), os.O_RDONLY, 0); err == nil {
		t.Error("open of a missing file succeeded")
	}
}

// The names the benchmark prints must be the names BENCHMARK.json declares.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bf, err := loadBenchmarkFile("..")
	if err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, benchmark default %d", bf.RunSeconds, defaultSeconds)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in the benchmark", i, w.Name, workloads[i].name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, specs []metricSpec, names []string, units map[string]string) {
		if len(specs) != len(names) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(specs), len(names))
		}
		for i, spec := range specs {
			if i >= len(names) {
				break
			}
			if spec.Name != names[i] {
				t.Errorf("%s metric %d: %q in BENCHMARK.json, %q printed", kind, i, spec.Name, names[i])
			}
			if u, ok := units[spec.Name]; ok && u != spec.Unit {
				t.Errorf("%s: unit %q in BENCHMARK.json, %q printed", spec.Name, spec.Unit, u)
			}
			if spec.Better != "higher" && spec.Better != "lower" {
				t.Errorf("%s: better is %q", spec.Name, spec.Better)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEndNames, map[string]string{
		"setup_s": "s", "ops_per_s": "ops/s", "lat_p50_ms": "ms", "lat_p90_ms": "ms", "write_lat_p90_ms": "ms",
	})
	check("per_layer", bf.PerLayer, perLayerNames(), layerUnits())
	for _, spec := range bf.EndToEnd {
		if spec.Bound <= 0 || spec.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", spec.Name, spec.Bound)
		}
	}
}

// Every workload, briefly, with the oracle on: the run shape of the real
// benchmark at a fraction of its length.
func TestWorkloadsShort(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			s, secs, err := setup(w, replicas, seams{}, 1, t.TempDir(), nil)
			if err != nil {
				t.Fatal(err)
			}
			defer s.close()
			closed := s.g.runClosed(100*time.Millisecond, 150*time.Millisecond)
			open := s.g.runOpen(150*time.Millisecond, true)
			if err := finishRun(s, open); err != nil {
				t.Fatal(err)
			}
			lat, writeLat := open.lat.merged(), open.writeLat.merged()
			if secs <= 0 || closed.meanOps <= 0 || len(lat) == 0 || len(writeLat) == 0 ||
				open.lat.windowMedian(50) <= 0 || open.writeLat.windowMedian(90) <= 0 {
				t.Errorf("setup %.3fs, closed %.0f ops/s, %d open samples (%d ordered): want all positive",
					secs, closed.meanOps, len(lat), len(writeLat))
			}
			if failed := s.g.timeouts.Load() + s.g.notOK.Load() + s.g.abandoned.Load(); failed != 0 {
				t.Errorf("%d ops failed", failed)
			}
			if w.followerReads && s.g.reads.Load() == 0 {
				t.Error("read workload issued no reads")
			}
		})
	}
}

// A wrong value must fail the oracle: corrupt one replica's state behind
// the cluster's back and the end-of-run check has to notice.
func TestOracleCatchesDivergence(t *testing.T) {
	w := findWorkload("write_small")
	s, _, err := setup(w, replicas, seams{}, 1, t.TempDir(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.close()
	if err := s.g.awaitState(5 * time.Second); err != nil {
		t.Fatalf("fresh preload fails the oracle: %v", err)
	}
	stale := make([]byte, w.valueBytes) // version 0: older than the acknowledged preload
	s.c.kvs[1].Execute(service.EncodePut(s.g.keys.names[5], stale))
	if err := s.g.verifyState(); err == nil {
		t.Error("oracle accepted a replica holding a version older than the acknowledged write")
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricSpec{Name: "lat_p90_ms", Unit: "ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Unit: "ops/s", Better: "higher", Bound: 0.05}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		name     string
		spec     metricSpec
		old, new []float64
		want     string
	}{
		{"same", lower, steady, steady, "ok"},
		{"latency up 20%", lower, steady, []float64{120, 121, 119, 120, 122}, "worse"},
		{"latency down 20%", lower, steady, []float64{80, 81, 79, 80, 82}, "ok"},
		{"throughput down 8%", higher, steady, []float64{92, 93, 91, 92, 93}, "worse"},
		{"throughput up 8%", higher, steady, []float64{108, 109, 107, 108, 109}, "ok"},
		{"noisy", lower, steady, []float64{80, 140, 100, 60, 120}, "unresolved"},
		{"single run", lower, steady, []float64{100}, "unresolved"},
	} {
		if _, _, _, _, got := verdict(c.spec, c.old, c.new); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
