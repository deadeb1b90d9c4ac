package main

import "time"

// probeCore: write_small on a single replica — the whole pipeline with no
// replication — as the baseline against which the three-replica ops_per_s
// shows what consensus costs.
func probeCore(p *probes) error {
	w := findWorkload("write_small")
	var s *session
	var err error
	p.once("core.n1.setup", func() { s, _, err = setup(w, 1, seams{}, p.seed, p.scratch, nil) })
	if err != nil {
		return err
	}
	defer s.close()
	var closed closedResult
	p.once("core.n1.closed", func() { closed = s.g.runClosed(500*time.Millisecond, 1500*time.Millisecond) })
	if err := s.g.firstErr(); err != nil {
		return err
	}
	p.m["core.n1_ops_per_s"] = closed.opsPerS
	return nil
}
