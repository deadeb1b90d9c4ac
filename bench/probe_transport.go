package main

import (
	"fmt"
	"sync"

	"gosmr/internal/transport"
)

// probeTransport: the frame transports by themselves. A 170-byte frame (one
// write_small request) echoed over TCP loopback and over the in-process
// network with no injected delay gives the round trip; a one-way stream of
// such frames, flushed every 32 like a busy sender, gives frames per second.
func probeTransport(p *probes) error {
	frame := make([]byte, 170)
	p.rng.Read(frame)

	rtt := func(name string, nw transport.Network, addr string) (float64, error) {
		cli, srv, closeAll, err := connPair(nw, addr)
		if err != nil {
			return 0, err
		}
		defer closeAll()
		var wg sync.WaitGroup
		wg.Add(1)
		go func() { // echo
			defer wg.Done()
			for {
				f, err := srv.ReadFrame()
				if err != nil || srv.WriteFrame(f) != nil {
					return
				}
			}
		}()
		ns := p.perOp(name, 256, func(n int) {
			for range n {
				if cli.WriteFrame(frame) != nil {
					return
				}
				if _, err := cli.ReadFrame(); err != nil {
					return
				}
			}
		})
		closeAll()
		wg.Wait()
		return ns / 1e3, nil
	}
	var err error
	if p.m["transport.tcp_rtt_us"], err = rtt("transport.TCP.Echo", &transport.TCP{}, "127.0.0.1:0"); err != nil {
		return err
	}
	if p.m["transport.inproc_rtt_us"], err = rtt("transport.Inproc.Echo", transport.NewInproc(0), "probe"); err != nil {
		return err
	}

	cli, srv, closeAll, err := connPair(&transport.TCP{}, "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer closeAll()
	bw, ok := cli.(transport.BatchWriter)
	if !ok {
		return fmt.Errorf("probe transport: TCP connection lost its BatchWriter")
	}
	received := make(chan struct{}, 1)
	const burst = 8192
	go func() { // sink: signal after every burst
		for i := 1; ; i++ {
			f, pooled, err := transport.ReadFrameOwned(srv)
			if err != nil {
				return
			}
			transport.RecycleFrame(f, pooled)
			if i%burst == 0 {
				received <- struct{}{}
			}
		}
	}()
	ns := p.perOp("transport.TCP.Stream", burst, func(n int) {
		for i := range n {
			if bw.WriteFrameNoFlush(frame) != nil {
				return
			}
			if i%32 == 31 {
				_ = bw.Flush()
			}
		}
		_ = bw.Flush()
		<-received
	})
	p.m["transport.tcp_frames_per_s"] = 1e9 / ns
	return nil
}

// connPair listens on addr, dials it and returns both ends.
func connPair(nw transport.Network, addr string) (cli, srv transport.FrameConn, closeAll func(), err error) {
	l, err := nw.Listen(addr)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("probe transport: %w", err)
	}
	accepted := make(chan transport.FrameConn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			close(accepted)
			return
		}
		accepted <- c
	}()
	cli, err = nw.Dial(l.Addr())
	if err != nil {
		_ = l.Close()
		return nil, nil, nil, fmt.Errorf("probe transport: %w", err)
	}
	srv, ok := <-accepted
	if !ok {
		_ = cli.Close()
		_ = l.Close()
		return nil, nil, nil, fmt.Errorf("probe transport: accept failed")
	}
	var once sync.Once
	return cli, srv, func() {
		once.Do(func() {
			_ = cli.Close()
			_ = srv.Close()
			_ = l.Close()
		})
	}, nil
}
