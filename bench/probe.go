package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"gosmr/internal/batch"
	"gosmr/internal/service"
	"gosmr/internal/wire"
)

// The isolated probes call each internal package's public functions on
// seeded synthetic inputs, outside any replica, once per traced run. They
// give the cost of a layer by itself; the in-situ metrics say how much of it
// the running system pays. One file per layer (probe_<layer>.go), so an API
// change in a layer costs a one-file follow-up here.

// probeBudget is the time one probe spends measuring. Probes report the
// median over their batches, so the budget trades run time for steadiness,
// not for accuracy of a mean.
const probeBudget = 40 * time.Millisecond

// probes carries what every probe needs.
type probes struct {
	m       map[string]float64
	tr      *tracer
	parent  int // span the probe spans hang under
	seed    int64
	rng     *rand.Rand
	scratch string
}

// perOp times f(n) — n calls of the function under test — in batches until
// probeBudget is spent (at least three batches) and returns the median
// nanoseconds per call. Each batch is one span named name.
func (p *probes) perOp(name string, n int, f func(n int)) float64 {
	f(n) // warm caches, pools and lazily built state
	var perCall []float64
	for start := time.Now(); len(perCall) < 3 || time.Since(start) < probeBudget; {
		t0 := p.tr.now()
		f(n)
		t1 := p.tr.now()
		p.tr.add(name, t0, t1, p.parent, "")
		perCall = append(perCall, float64(t1-t0)/float64(n))
	}
	return medianFloat(perCall)
}

// once times a single call of f as one span named name and returns its
// duration in nanoseconds.
func (p *probes) once(name string, f func()) float64 {
	t0 := p.tr.now()
	f()
	t1 := p.tr.now()
	p.tr.add(name, t0, t1, p.parent, "")
	return float64(t1 - t0)
}

// allocsPer returns heap allocations per call of f over n calls.
func allocsPer(n int, f func()) float64 {
	f()
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for range n {
		f()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// tempDir makes a directory under the run's scratch space; the returned
// function removes it.
func (p *probes) tempDir(prefix string) (string, func(), error) {
	dir, err := os.MkdirTemp(p.scratch, prefix)
	if err != nil {
		return "", nil, err
	}
	return dir, func() { _ = os.RemoveAll(dir) }, nil
}

// runProbes runs every isolated probe and stores its metrics in m.
func runProbes(m map[string]float64, tr *tracer, seed int64, scratch string) error {
	p := &probes{m: m, tr: tr, parent: -1, seed: seed, rng: rand.New(rand.NewSource(seed)), scratch: scratch}
	for _, probe := range []struct {
		layer string
		run   func(*probes) error
	}{
		{"wire", probeWire},
		{"batch", probeBatch},
		{"replycache", probeReplyCache},
		{"queue", probeQueue},
		{"paxos", probePaxos},
		{"storage", probeStorage},
		{"wal", probeWAL},
		{"executor", probeExecutor},
		{"service", probeService},
		{"transport", probeTransport},
		{"core", probeCore},
	} {
		p.parent = tr.begin("probe."+probe.layer, -1)
		err := probe.run(p)
		tr.end(p.parent)
		if err != nil {
			return err
		}
	}
	return nil
}

// putPayload returns a KV PUT of valueBytes on a seeded key — the request
// shape of the write workloads.
func (p *probes) putPayload(valueBytes int) []byte {
	value := make([]byte, valueBytes)
	p.rng.Read(value)
	return service.EncodePut(fmt.Sprintf("k%05d", p.rng.Intn(4096)), value)
}

// requests returns n pooled-free client requests with 128-byte PUT payloads.
func (p *probes) requests(n int) []*wire.ClientRequest {
	reqs := make([]*wire.ClientRequest, n)
	for i := range reqs {
		reqs[i] = &wire.ClientRequest{ClientID: clientIDBase + uint64(i), Seq: 1, Payload: p.putPayload(128)}
	}
	return reqs
}

// fullBatch returns an encoded batch of the default BSZ (1300 bytes of
// 128-byte PUTs), the value one consensus instance carries on write_small.
func (p *probes) fullBatch() []byte {
	b := batch.NewBuilder(batch.Policy{})
	for _, req := range p.requests(16) {
		if b.Add(req) {
			break
		}
	}
	return b.Flush()
}
