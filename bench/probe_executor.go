package main

import (
	"fmt"

	"gosmr/internal/executor"
	"gosmr/internal/profiling"
	"gosmr/internal/service"
)

// probeExecutor: the dependency scheduler with two workers (the groups_skew
// shape) and empty tasks: dispatching a single-key command, and dispatching
// a two-key command whose keys live on different workers (a join node plus
// one fence per worker).
func probeExecutor(p *probes) error {
	kv := service.NewKV()
	e := executor.New(executor.Config{Workers: 2, Keys: kv.Keys})
	e.Start()
	defer e.Stop()
	task := func(*profiling.Thread) {}

	// Two keys on different workers.
	var a, b string
	for i := 0; b == ""; i++ {
		k := fmt.Sprintf("acct%03d", i)
		switch {
		case a == "":
			a = k
		case executor.KeyHash(k)%2 != executor.KeyHash(a)%2:
			b = k
		}
	}
	single := service.EncodePut(a, []byte("v"))
	multi := service.EncodeTxn(a, b, 1)
	submit := func(req []byte) func(int) {
		return func(n int) {
			for range n {
				e.Submit(nil, req, task)
			}
			e.Quiesce(nil)
		}
	}
	p.m["executor.submit_ns"] = p.perOp("executor.Submit", 4096, submit(single))
	p.m["executor.join_submit_ns"] = p.perOp("executor.Submit", 4096, submit(multi))
	if st := e.Stats(); st.Joins == 0 || st.Barriers != 0 {
		return fmt.Errorf("probe executor: multi-key commands did not join (stats %+v)", st)
	}
	return nil
}
