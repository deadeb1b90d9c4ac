package main

import (
	"fmt"

	"gosmr/internal/service"
	"gosmr/internal/snapshot"
)

// probeService: the bundled KV store (ExecuteCost 0) on a 4096-key state —
// PUT and GET of 128-byte values — and its chunked snapshot: a full
// copy-on-write cut of 10 000 keys drained in 256-KiB chunks, the work one
// full snapshot generation costs.
func probeService(p *probes) error {
	kv := service.NewKV()
	puts := make([][]byte, 4096)
	gets := make([][]byte, len(puts))
	value := make([]byte, 128)
	for i := range puts {
		key := fmt.Sprintf("k%05d", i)
		puts[i] = service.EncodePut(key, value)
		gets[i] = service.EncodeGet(key)
	}
	run := func(reqs [][]byte) func(int) {
		return func(n int) {
			for i := range n {
				kv.Execute(reqs[i%len(reqs)])
			}
		}
	}
	p.m["service.kv_put_ns"] = p.perOp("service.KV.Execute", 8192, run(puts))
	p.m["service.kv_get_ns"] = p.perOp("service.KV.Execute", 8192, run(gets))

	big := service.NewKV()
	const keys = 10000
	for i := range keys {
		big.Execute(service.EncodePut(fmt.Sprintf("k%05d", i), value))
	}
	var cutMS, mbPerS []float64
	for range 3 {
		var bytes int
		ns := p.once("snapshot.CutDrain", func() {
			src, _, err := big.CutSnapshot(true)
			if err != nil {
				return
			}
			chunks, _ := snapshot.Drain(src, 256<<10)
			for _, c := range chunks {
				bytes += len(c)
			}
		})
		if bytes == 0 {
			return fmt.Errorf("probe service: snapshot drained nothing")
		}
		cutMS = append(cutMS, ns/1e6)
		mbPerS = append(mbPerS, float64(bytes)/1e6/(ns/1e9))
	}
	p.m["service.cut_ms_per_10k_keys"] = medianFloat(cutMS)
	p.m["snapshot.drain_mb_per_s"] = medianFloat(mbPerS)
	return nil
}
