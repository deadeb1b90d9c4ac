package main

import (
	"fmt"
	"time"

	"gosmr"
	"gosmr/internal/service"
)

// probeClient: the public gosmr.Client, sequential, against the traced
// run's now idle cluster — Execute (ordered) and Read (lease / read-index
// path). This is the only place client.go is measured: its
// one-connection-per-client design cannot load a cluster within the
// two-connection budget. Keys are outside the oracle's key space.
func probeClient(m map[string]float64, tr *tracer, c *cluster) error {
	cli, err := gosmr.Dial(gosmr.ClientConfig{
		Addrs: c.clients, Network: c.dialNet,
		Timeout: 5 * time.Second, InitialTarget: c.leader,
	})
	if err != nil {
		return fmt.Errorf("probe client: %w", err)
	}
	defer cli.Close()
	parent := tr.begin("probe.client", -1)
	defer tr.end(parent)
	const calls = 16
	var execNS, readNS []int64
	value := make([]byte, 128)
	for i := range calls {
		key := fmt.Sprintf("probe-client-%d", i%4)
		t0 := tr.now()
		if _, err := cli.Execute(service.EncodePut(key, value)); err != nil {
			return fmt.Errorf("probe client: Execute: %w", err)
		}
		t1 := tr.now()
		reply, err := cli.Read(service.EncodeGet(key), gosmr.ReadLinearizable)
		t2 := tr.now()
		if err != nil {
			return fmt.Errorf("probe client: Read: %w", err)
		}
		if status, _ := service.DecodeReply(reply); status != service.KVOK {
			return fmt.Errorf("probe client: Read of a key just written: status %d", status)
		}
		tr.add("client.Execute", t0, t1, parent, "")
		tr.add("client.Read", t1, t2, parent, "")
		execNS, readNS = append(execNS, t1-t0), append(readNS, t2-t1)
	}
	sortInt64(execNS)
	sortInt64(readNS)
	m["client.execute_ms_p50"] = nsToMs(percentile(execNS, 50))
	m["client.read_ms_p50"] = nsToMs(percentile(readNS, 50))
	return nil
}
