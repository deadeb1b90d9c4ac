package experiments

import (
	"strings"
	"testing"
	"time"
)

// fastSuite returns a suite with reduced fidelity for CI-speed shape checks.
func fastSuite() *Suite {
	return NewSuite(Options{
		Warmup:  80 * time.Millisecond,
		Measure: 200 * time.Millisecond,
		Cores:   []int{1, 4, 8, 24},
	})
}

func TestFig1ZooKeeperCollapses(t *testing.T) {
	r := fastSuite().Fig1()
	// Paper Fig. 1a: throughput peaks in the low-core range and degrades
	// substantially at 24 cores.
	peak := 0.0
	for _, v := range r.Throughput {
		if v > peak {
			peak = v
		}
	}
	last := r.Throughput[len(r.Throughput)-1]
	if last >= peak*0.8 {
		t.Errorf("no collapse: peak %.0f, 24-core %.0f", peak, last)
	}
	if peak < 25000 || peak > 70000 {
		t.Errorf("peak = %.0f, want the paper's ~50K scale", peak)
	}
	if !strings.Contains(r.Report, "CommitProcessor") {
		t.Error("report missing leader thread profile")
	}
}

func TestFig4ScalesThenSaturates(t *testing.T) {
	r := fastSuite().Fig4()
	// Single-core throughput matches the paper's ~15K; speedup exceeds 5x
	// at 24 cores; n=5 does not beat n=3 meaningfully.
	if r.N3[0] < 10000 || r.N3[0] > 22000 {
		t.Errorf("1-core n=3 = %.0f, want ~15K", r.N3[0])
	}
	last := len(r.Cores) - 1
	if r.SpeedN3[last] < 4.5 {
		t.Errorf("n=3 speedup at 24 cores = %.2f, want ~5-6", r.SpeedN3[last])
	}
	if r.N3[last] < 80000 || r.N3[last] > 130000 {
		t.Errorf("24-core n=3 = %.0f, want ~100K", r.N3[last])
	}
	// Monotonic non-decreasing throughput with cores (within 5% noise).
	for i := 1; i < len(r.N3); i++ {
		if r.N3[i] < r.N3[i-1]*0.95 {
			t.Errorf("throughput dropped between %d and %d cores: %.0f -> %.0f",
				r.Cores[i-1], r.Cores[i], r.N3[i-1], r.N3[i])
		}
	}
}

func TestFig5ContentionStaysLow(t *testing.T) {
	n3, _ := fastSuite().Fig5()
	// Paper Fig. 5b: JPaxos blocked time is small and does NOT grow with
	// cores — the architecture's headline contention result. (Our 1-core
	// model over-accounts holder-preemption stalls, so the bound is looser
	// there.)
	for r := range n3.Blocked {
		for i, v := range n3.Blocked[r] {
			limit := 30.0
			if n3.Cores[i] < 4 {
				limit = 70.0
			}
			if v > limit {
				t.Errorf("replica %d blocked %.1f%% at %d cores, want < %.0f%%", r+1, v, n3.Cores[i], limit)
			}
		}
		first, last := n3.Blocked[r][0], n3.Blocked[r][len(n3.Blocked[r])-1]
		if last > first+10 {
			t.Errorf("replica %d blocked grew with cores: %.1f%% -> %.1f%%", r+1, first, last)
		}
	}
	// The leader (replica index 0) uses the most CPU.
	last := len(n3.Cores) - 1
	if n3.CPU[0][last] <= n3.CPU[1][last] {
		t.Errorf("leader CPU %.0f%% not above follower %.0f%%", n3.CPU[0][last], n3.CPU[1][last])
	}
}

func TestFig6EdelNearLinearSpeedup(t *testing.T) {
	r := fastSuite().Fig6()
	last := len(r.Cores) - 1
	// Paper Fig. 6b: close-to-linear speedup up to 8 cores (~7x).
	if r.SpeedN3[last] < 5 || r.SpeedN3[last] > 8.5 {
		t.Errorf("edel 8-core speedup = %.2f, want ~7", r.SpeedN3[last])
	}
}

func TestFig8ClientIOAndBatcherDominateAtOneCore(t *testing.T) {
	profiles := fastSuite().Fig8()
	var oneCore *ThreadProfileResult
	for i := range profiles {
		if profiles[i].Label == "parapluie-1core" {
			oneCore = &profiles[i]
		}
	}
	if oneCore == nil {
		t.Fatal("missing parapluie-1core profile")
	}
	// Paper Fig. 8a: ClientIO + Batcher busy time accounts for most of the
	// single core; no thread is blocked meaningfully.
	var cioBatcher, total time.Duration
	for _, st := range oneCore.Threads {
		total += st.Busy
		if strings.HasPrefix(st.Name, "ClientIO") || st.Name == "Batcher" {
			cioBatcher += st.Busy
		}
	}
	if total == 0 || float64(cioBatcher)/float64(total) < 0.5 {
		t.Errorf("ClientIO+Batcher = %.0f%% of busy time, want > 50%%",
			100*float64(cioBatcher)/float64(total))
	}
}

func TestFig9ClientIOSweepShape(t *testing.T) {
	r := fastSuite().Fig9()
	// Paper Fig. 9a: large gain from 1 to 4 threads, degradation past 8.
	idx := func(x float64) int {
		for i, v := range r.X {
			if v == x {
				return i
			}
		}
		return -1
	}
	one, four, twentyFour := r.Tput[idx(1)], r.Tput[idx(4)], r.Tput[idx(24)]
	if four < one*1.9 {
		t.Errorf("4 threads (%.0f) not ~2x 1 thread (%.0f)", four, one)
	}
	peak := 0.0
	for _, v := range r.Tput {
		if v > peak {
			peak = v
		}
	}
	if twentyFour > peak*0.85 {
		t.Errorf("no degradation at 24 threads: %.0f vs peak %.0f", twentyFour, peak)
	}
}

func TestFig10WindowSweepShape(t *testing.T) {
	r := fastSuite().Fig10()
	// Throughput rises from WND=10 to the peak; latency grows monotonically
	// with WND; the window tracks its limit.
	if r.Tput[0] >= r.Tput[3] {
		t.Errorf("no throughput gain from WND=10 (%.0f) to WND=25 (%.0f)", r.Tput[0], r.Tput[3])
	}
	for i := 1; i < len(r.Lat); i++ {
		if r.Lat[i] < r.Lat[i-1] {
			t.Errorf("latency not monotonic at WND=%v: %v -> %v", r.X[i], r.Lat[i-1], r.Lat[i])
		}
	}
	for i, wnd := range r.X {
		if r.Window[i] < wnd*0.9 {
			t.Errorf("avg window %.1f well below limit %.0f", r.Window[i], wnd)
		}
	}
	// Paper Fig. 10b: ~1ms at WND=10 growing to ~4ms at WND=50.
	if r.Lat[0] > 2*time.Millisecond {
		t.Errorf("WND=10 latency = %v, want ~1ms", r.Lat[0])
	}
	if last := r.Lat[len(r.Lat)-1]; last < 3*time.Millisecond {
		t.Errorf("WND=50 latency = %v, want ~4ms", last)
	}
}

func TestFig11BatchSweepFlat(t *testing.T) {
	r := fastSuite().Fig11()
	// Paper Fig. 11a: beyond 1300 bytes the throughput stays flat (within
	// ~10%): bigger batches do not help once frames are full.
	base := r.Tput[0]
	for i, v := range r.Tput {
		if v < base*0.9 || v > base*1.15 {
			t.Errorf("BSZ=%v throughput %.0f deviates from %.0f", r.X[i], v, base)
		}
	}
}

func TestFig12JPaxosBeatsZooKeeper(t *testing.T) {
	r := fastSuite().Fig12()
	last := len(r.Cores) - 1
	// Paper Fig. 12a: ~4x at 24 cores.
	ratio := r.JPaxos[last] / r.ZooKeeper[last]
	if ratio < 3 {
		t.Errorf("JPaxos/ZooKeeper at 24 cores = %.2f, want > 3", ratio)
	}
}

func TestFig13ZooKeeperContentionGrows(t *testing.T) {
	r := fastSuite().Fig13()
	leader := len(r.CPU) - 1
	blocked := r.Blocked[leader]
	if blocked[len(blocked)-1] < 100 {
		t.Errorf("leader blocked at 24 cores = %.1f%%, want > 100%% (Fig. 13b)", blocked[len(blocked)-1])
	}
	if blocked[0] > 20 {
		t.Errorf("leader blocked at 1 core = %.1f%%, want ~0", blocked[0])
	}
}

func TestTableIQueueAverages(t *testing.T) {
	r := fastSuite().TableI()
	// RequestQueue average decreases as WND grows; DispatcherQueue stays
	// near empty; ballots track the limit.
	if r.RequestQ[len(r.RequestQ)-1] >= r.RequestQ[0] {
		t.Errorf("RequestQueue avg did not fall with WND: %v", r.RequestQ)
	}
	for i, v := range r.DispatchQ {
		if r.WND[i] <= 40 && v > 20 {
			t.Errorf("DispatcherQueue avg at WND=%d = %.1f, want near empty", r.WND[i], v)
		}
	}
	for i, v := range r.AvgBallots {
		if v < float64(r.WND[i])*0.9 {
			t.Errorf("avg ballots %.1f below WND %d", v, r.WND[i])
		}
	}
}

func TestTableIIPingInflation(t *testing.T) {
	r := fastSuite().TableII()
	// Paper Table II: idle 0.06ms; leader RTT ~2.5ms under load; follower
	// links near idle levels.
	if r.Idle > 200*time.Microsecond {
		t.Errorf("idle RTT = %v, want ~80µs", r.Idle)
	}
	if r.LeaderToAny < 10*r.Idle {
		t.Errorf("leader RTT %v did not inflate (idle %v)", r.LeaderToAny, r.Idle)
	}
	if r.FollowerToPeer > r.LeaderToAny/2 {
		t.Errorf("follower RTT %v not well below leader RTT %v", r.FollowerToPeer, r.LeaderToAny)
	}
}

func TestTableIIIPacketCeiling(t *testing.T) {
	r := fastSuite().TableIII()
	// Every BSZ pins the leader's out-packet rate at the kernel ceiling
	// (~150K/s), and BSZ=650 yields clearly lower request throughput.
	for i, p := range r.PktsOut {
		low := 140000.0
		if r.BSZ[i] < 1300 {
			low = 110000 // small batches leave the leader slightly CPU-bound
		}
		if p < low || p > 170000 {
			t.Errorf("BSZ=%d pkts/s out = %.0f, want ~155K", r.BSZ[i], p)
		}
	}
	if r.Tput[0] >= r.Tput[1]*0.92 {
		t.Errorf("BSZ=650 (%.0f) not clearly below BSZ=1300 (%.0f)", r.Tput[0], r.Tput[1])
	}
}

func TestAblationRSSImproves(t *testing.T) {
	r := fastSuite().AblationRSS()
	if r.Variant <= r.Baseline*1.1 {
		t.Errorf("RSS gain = %.2fx, want meaningful improvement", r.Variant/r.Baseline)
	}
}

func TestAblationNoBatcherCosts(t *testing.T) {
	r := fastSuite().AblationNoBatcher()
	if r.Variant > r.Baseline*1.02 {
		t.Errorf("removing the Batcher improved throughput (%.0f -> %.0f)?", r.Baseline, r.Variant)
	}
}

func TestDeterministicReports(t *testing.T) {
	a := fastSuite().TableII()
	b := fastSuite().TableII()
	if a.Report != b.Report {
		t.Error("experiment output is not deterministic across runs")
	}
}
