package main

import "gosmr/internal/wire"

// probeWire: the codec on the two messages the write path moves most — a
// client request and a Propose (this repo's Phase 2a, the "accept request"
// of the literature) carrying one full 1300-byte batch.
func probeWire(p *probes) error {
	req := &wire.ClientRequest{ClientID: clientIDBase, Seq: 7, Payload: p.putPayload(128)}
	prop := &wire.Propose{View: 3, ID: 1 << 20, DecidedUpTo: 1<<20 - 5, Value: p.fullBatch()}
	reqFrame, propFrame := wire.Marshal(req), wire.Marshal(prop)
	var buf []byte

	encode := func(msg wire.Message) func(int) {
		return func(n int) {
			for range n {
				buf = wire.AppendMessage(buf[:0], msg)
			}
		}
	}
	decode := func(frame []byte) func(int) {
		return func(n int) {
			for range n {
				msg, err := wire.Unmarshal(frame)
				if err != nil {
					panic(err) // a frame this file just encoded
				}
				wire.Release(msg)
			}
		}
	}
	p.m["wire.encode_request_ns"] = p.perOp("wire.AppendMessage", 4096, encode(req))
	p.m["wire.decode_request_ns"] = p.perOp("wire.Unmarshal", 4096, decode(reqFrame))
	p.m["wire.encode_propose_ns"] = p.perOp("wire.AppendMessage", 4096, encode(prop))
	p.m["wire.decode_propose_ns"] = p.perOp("wire.Unmarshal", 4096, decode(propFrame))
	p.m["wire.allocs_per_roundtrip"] = allocsPer(4096, func() {
		buf = wire.AppendMessage(buf[:0], req)
		msg, _ := wire.Unmarshal(buf)
		wire.Release(msg)
	})
	return nil
}
