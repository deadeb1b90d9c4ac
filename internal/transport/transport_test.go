package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"gosmr/internal/wire"
)

// networks returns both implementations with a fresh address namespace.
func networks(t *testing.T) map[string]Network {
	t.Helper()
	return map[string]Network{
		"tcp":    &TCP{},
		"inproc": NewInproc(0),
	}
}

// listenAddr returns a suitable listen address for the given network kind.
func listenAddr(kind string) string {
	if kind == "tcp" {
		return "127.0.0.1:0"
	}
	return "node-a"
}

func TestRoundTrip(t *testing.T) {
	for kind, nw := range networks(t) {
		t.Run(kind, func(t *testing.T) {
			l, err := nw.Listen(listenAddr(kind))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()

			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := l.Accept()
				if err != nil {
					t.Errorf("Accept: %v", err)
					return
				}
				defer c.Close()
				for {
					f, err := c.ReadFrame()
					if err != nil {
						return
					}
					if err := c.WriteFrame(append([]byte("echo:"), f...)); err != nil {
						t.Errorf("echo write: %v", err)
						return
					}
				}
			}()

			c, err := nw.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			for i := range 100 {
				msg := []byte(fmt.Sprintf("frame-%d", i))
				if err := c.WriteFrame(msg); err != nil {
					t.Fatal(err)
				}
				got, err := c.ReadFrame()
				if err != nil {
					t.Fatal(err)
				}
				if want := append([]byte("echo:"), msg...); !bytes.Equal(got, want) {
					t.Fatalf("frame %d = %q, want %q", i, got, want)
				}
			}
			c.Close()
			wg.Wait()
		})
	}
}

func TestLargeFrames(t *testing.T) {
	for kind, nw := range networks(t) {
		t.Run(kind, func(t *testing.T) {
			l, err := nw.Listen(listenAddr(kind))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			big := bytes.Repeat([]byte{0xAB}, 4<<20)
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				c, err := l.Accept()
				if err != nil {
					return
				}
				defer c.Close()
				f, err := c.ReadFrame()
				if err != nil {
					t.Errorf("read: %v", err)
					return
				}
				if !bytes.Equal(f, big) {
					t.Errorf("large frame corrupted: len %d", len(f))
				}
				_ = c.WriteFrame([]byte("ok"))
			}()
			c, err := nw.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			if err := c.WriteFrame(big); err != nil {
				t.Fatal(err)
			}
			if _, err := c.ReadFrame(); err != nil {
				t.Fatal(err)
			}
			wg.Wait()
		})
	}
}

func TestDialNoListener(t *testing.T) {
	nw := NewInproc(0)
	if _, err := nw.Dial("nowhere"); !errors.Is(err, ErrNoListener) {
		t.Errorf("Dial = %v, want ErrNoListener", err)
	}
	tcp := &TCP{}
	if _, err := tcp.Dial("127.0.0.1:1"); err == nil {
		t.Error("TCP dial to closed port succeeded")
	}
}

func TestInprocAddrInUse(t *testing.T) {
	nw := NewInproc(0)
	l, err := nw.Listen("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nw.Listen("a"); !errors.Is(err, ErrAddrInUse) {
		t.Errorf("second Listen = %v, want ErrAddrInUse", err)
	}
	l.Close()
	// Address is reusable after close.
	l2, err := nw.Listen("a")
	if err != nil {
		t.Fatalf("Listen after Close: %v", err)
	}
	l2.Close()
}

func TestCloseUnblocksReader(t *testing.T) {
	for kind, nw := range networks(t) {
		t.Run(kind, func(t *testing.T) {
			l, err := nw.Listen(listenAddr(kind))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			accepted := make(chan FrameConn, 1)
			go func() {
				c, err := l.Accept()
				if err == nil {
					accepted <- c
				}
			}()
			c, err := nw.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			srv := <-accepted
			errc := make(chan error, 1)
			go func() {
				_, err := srv.ReadFrame()
				errc <- err
			}()
			c.Close()
			if err := <-errc; err == nil {
				t.Error("ReadFrame returned nil after peer close")
			}
			srv.Close()
		})
	}
}

func TestPeerCloseDrainsPendingFrames(t *testing.T) {
	nw := NewInproc(8)
	l, _ := nw.Listen("srv")
	defer l.Close()
	accepted := make(chan FrameConn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := nw.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	srv := <-accepted
	for i := range 3 {
		if err := c.WriteFrame([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	for i := range 3 {
		f, err := srv.ReadFrame()
		if err != nil || f[0] != byte(i) {
			t.Fatalf("frame %d = %v, %v", i, f, err)
		}
	}
	if _, err := srv.ReadFrame(); !errors.Is(err, ErrConnClosed) {
		t.Errorf("after drain: %v, want ErrConnClosed", err)
	}
}

func TestListenerCloseUnblocksAccept(t *testing.T) {
	for kind, nw := range networks(t) {
		t.Run(kind, func(t *testing.T) {
			l, err := nw.Listen(listenAddr(kind))
			if err != nil {
				t.Fatal(err)
			}
			errc := make(chan error, 1)
			go func() {
				_, err := l.Accept()
				errc <- err
			}()
			l.Close()
			if err := <-errc; err == nil {
				t.Error("Accept returned nil after listener close")
			}
		})
	}
}

func TestFaultInjectionDropAndDuplicate(t *testing.T) {
	nw := NewInproc(64)
	var mu sync.Mutex
	mode := "none"
	nw.SetFault(func(from, to string, frame []byte) (bool, bool) {
		mu.Lock()
		defer mu.Unlock()
		switch mode {
		case "drop":
			return true, false
		case "dup":
			return false, true
		default:
			return false, false
		}
	})
	l, _ := nw.Listen("srv")
	defer l.Close()
	accepted := make(chan FrameConn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := nw.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := <-accepted
	defer srv.Close()

	setMode := func(m string) { mu.Lock(); mode = m; mu.Unlock() }

	setMode("drop")
	if err := c.WriteFrame([]byte("lost")); err != nil {
		t.Fatal(err)
	}
	setMode("dup")
	if err := c.WriteFrame([]byte("twice")); err != nil {
		t.Fatal(err)
	}
	setMode("none")
	if err := c.WriteFrame([]byte("final")); err != nil {
		t.Fatal(err)
	}
	want := []string{"twice", "twice", "final"} // "lost" never arrives
	for i, w := range want {
		f, err := srv.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		if string(f) != w {
			t.Fatalf("frame %d = %q, want %q", i, f, w)
		}
	}
}

func TestWriteFrameCopiesBuffer(t *testing.T) {
	nw := NewInproc(8)
	l, _ := nw.Listen("srv")
	defer l.Close()
	accepted := make(chan FrameConn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := nw.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := <-accepted
	buf := []byte("mutate-me")
	if err := c.WriteFrame(buf); err != nil {
		t.Fatal(err)
	}
	for i := range buf {
		buf[i] = 'X'
	}
	f, err := srv.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if string(f) != "mutate-me" {
		t.Errorf("frame = %q: WriteFrame aliased the caller's buffer", f)
	}
}

// countingConn wraps a net.Conn and counts Write syscalls.
type countingConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countingConn) Write(b []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(b)
}

// TestBatchWriterCoalescesFrames asserts that frames written with
// WriteFrameNoFlush share one underlying write (and hence one syscall/
// packet) when flushed together — the sender-side fix for the
// flush-per-frame regression — while WriteFrame still flushes eagerly.
func TestBatchWriterCoalescesFrames(t *testing.T) {
	client, server := net.Pipe()
	cc := &countingConn{Conn: client}
	conn := newTCPConn(cc)
	defer conn.Close()
	defer server.Close()

	// Drain the server side so Pipe writes don't block.
	received := make(chan []byte, 64)
	go func() {
		defer close(received)
		srv := newTCPConn(server)
		for {
			f, err := srv.ReadFrame()
			if err != nil {
				return
			}
			received <- f
		}
	}()

	bw, ok := FrameConn(conn).(BatchWriter)
	if !ok {
		t.Fatal("tcpConn does not implement BatchWriter")
	}
	const frames = 16
	for i := range frames {
		if err := bw.WriteFrameNoFlush([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := cc.writes.Load(); got != 0 {
		t.Errorf("WriteFrameNoFlush hit the socket %d times before Flush", got)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := cc.writes.Load(); got != 1 {
		t.Errorf("%d frames flushed with %d writes, want 1 shared write", frames, got)
	}
	for i := range frames {
		f := <-received
		if len(f) != 1 || f[0] != byte(i) {
			t.Fatalf("frame %d corrupted: %v", i, f)
		}
	}

	// The eager path still flushes per frame: two frames, two+ writes.
	before := cc.writes.Load()
	for i := range 2 {
		if err := conn.WriteFrame([]byte{0xF0 ^ byte(i)}); err != nil {
			t.Fatal(err)
		}
		<-received
	}
	if got := cc.writes.Load() - before; got < 2 {
		t.Errorf("2 eager WriteFrames produced %d writes, want >= 2", got)
	}
}

func TestInprocDelayedDelivery(t *testing.T) {
	net := NewInproc(0)
	const delay = 20 * time.Millisecond
	net.SetDelay(delay)
	l, err := net.Listen("delayed")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan FrameConn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	cli, err := net.Dial("delayed")
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	srv := <-accepted
	defer srv.Close()

	// A frame becomes readable no earlier than one delay after the write,
	// and the writer is not blocked by the delay.
	start := time.Now()
	if err := cli.WriteFrame([]byte("one")); err != nil {
		t.Fatal(err)
	}
	if wrote := time.Since(start); wrote > delay/2 {
		t.Errorf("WriteFrame blocked %v; the delay must not block writers", wrote)
	}
	frame, err := srv.ReadFrame()
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < delay {
		t.Errorf("frame delivered after %v, want >= %v", elapsed, delay)
	}
	if string(frame) != "one" {
		t.Errorf("frame = %q", frame)
	}

	// Pipelined frames overlap their latencies: two frames written
	// back-to-back arrive ~one delay later, not two.
	start = time.Now()
	_ = cli.WriteFrame([]byte("a"))
	_ = cli.WriteFrame([]byte("b"))
	if _, err := srv.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.ReadFrame(); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 2*delay {
		t.Errorf("two pipelined frames took %v, want ~%v (latencies must overlap)", elapsed, delay)
	}
}

// TestInprocBatchWriterStagesUntilFlush asserts the in-proc transport
// implements the coalescing extension with the same visibility semantics as
// TCP: nothing reaches the peer before Flush, and Flush delivers in order —
// so experiments sweeping the in-proc network measure the same send path as
// production TCP.
func TestInprocBatchWriterStagesUntilFlush(t *testing.T) {
	nw := NewInproc(64)
	l, _ := nw.Listen("srv")
	defer l.Close()
	accepted := make(chan FrameConn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := nw.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := <-accepted
	defer srv.Close()

	bw, ok := c.(BatchWriter)
	if !ok {
		t.Fatal("inprocConn does not implement BatchWriter")
	}
	for i := range 5 {
		if err := bw.WriteFrameNoFlush([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing visible before Flush.
	ic := srv.(*inprocConn)
	if n := len(ic.in); n != 0 {
		t.Fatalf("%d frames visible before Flush", n)
	}
	if err := bw.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := range 5 {
		f, err := srv.ReadFrame()
		if err != nil || len(f) != 1 || f[0] != byte(i) {
			t.Fatalf("frame %d = %v, %v", i, f, err)
		}
	}
}

// TestMessageWriterMatchesMarshal checks that the zero-copy encode path
// (WriteMessageNoFlush) produces frames byte-identical to Marshal on both
// transports, including messages larger than the TCP write buffer.
func TestMessageWriterMatchesMarshal(t *testing.T) {
	msgs := []wire.Message{
		&wire.Accept{View: 3, ID: 9},
		&wire.Propose{View: 3, ID: 9, DecidedUpTo: 8, Value: bytes.Repeat([]byte{0x5A}, 1300)},
		&wire.PeerMsg{Epoch: 3, Group: 2, Msg: &wire.Propose{View: 1, ID: 4, Value: []byte("grouped")}},
		// Larger than the 64 KiB bufio buffer: exercises the scratch path.
		&wire.Propose{View: 9, ID: 1, Value: bytes.Repeat([]byte{0xC3}, 200<<10)},
	}
	for kind, nw := range networks(t) {
		t.Run(kind, func(t *testing.T) {
			l, err := nw.Listen(listenAddr(kind))
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			accepted := make(chan FrameConn, 1)
			go func() {
				c, err := l.Accept()
				if err == nil {
					accepted <- c
				}
			}()
			c, err := nw.Dial(l.Addr())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			srv := <-accepted
			defer srv.Close()

			mw, ok := c.(MessageWriter)
			if !ok {
				t.Fatalf("%T does not implement MessageWriter", c)
			}
			for _, m := range msgs {
				if err := mw.WriteMessageNoFlush(m); err != nil {
					t.Fatal(err)
				}
			}
			if err := mw.Flush(); err != nil {
				t.Fatal(err)
			}
			for i, m := range msgs {
				f, err := srv.ReadFrame()
				if err != nil {
					t.Fatal(err)
				}
				if want := wire.Marshal(m); !bytes.Equal(f, want) {
					t.Fatalf("message %d: frame differs from Marshal (len %d vs %d)", i, len(f), len(want))
				}
			}
		})
	}
}

// TestDuplicateFaultDoesNotAliasRecycledFrames injects duplication and
// recycles each received frame: the duplicate must own its bytes, or the
// recycled first copy would be rewritten under it.
func TestDuplicateFaultDoesNotAliasRecycledFrames(t *testing.T) {
	nw := NewInproc(64)
	nw.SetFault(func(from, to string, frame []byte) (bool, bool) { return false, true })
	l, _ := nw.Listen("srv")
	defer l.Close()
	accepted := make(chan FrameConn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := nw.Dial("srv")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	srv := <-accepted
	defer srv.Close()

	pr := srv.(PooledReader)
	for i := range 32 {
		payload := []byte(fmt.Sprintf("frame-%02d", i))
		if err := c.WriteFrame(payload); err != nil {
			t.Fatal(err)
		}
		for copies := range 2 {
			f, err := pr.ReadFramePooled()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(f, payload) {
				t.Fatalf("frame %d copy %d = %q, want %q", i, copies, f, payload)
			}
			// Scribble, then recycle: if the two deliveries aliased, the
			// second read would observe the scribble.
			for j := range f {
				f[j] = 0xEE
			}
			PutFrameBuf(f)
		}
	}
}

// TestFrameBufPoolRoundTrip pins the pool contract: buffers cycle without
// allocation, grow on demand, and oversized buffers are not retained.
func TestFrameBufPoolRoundTrip(t *testing.T) {
	b := GetFrameBuf(100)
	if len(b) != 100 {
		t.Fatalf("GetFrameBuf(100) len = %d", len(b))
	}
	PutFrameBuf(b)
	steady := testing.AllocsPerRun(100, func() {
		buf := GetFrameBuf(1024)
		PutFrameBuf(buf)
	})
	if steady > 1 {
		t.Errorf("pooled Get/Put allocates %.1f allocs/op", steady)
	}
	huge := GetFrameBuf(maxPooledFrame + 1)
	PutFrameBuf(huge) // dropped, not pooled
	next := GetFrameBuf(16)
	if cap(next) > maxPooledFrame {
		t.Error("oversized buffer was retained by the pool")
	}
	PutFrameBuf(next)
}

// TestInprocAsStampsDialerIdentity pins the As contract: connections dialed
// through an identity view carry the caller's name as their local endpoint,
// so a FaultFunc can match directed node pairs. A plain Dial stays
// anonymous ("inproc-client-N"), which name-filtered fault injectors would
// silently never match.
func TestInprocAsStampsDialerIdentity(t *testing.T) {
	net := NewInproc(0)
	type seenFrame struct{ from, to string }
	var mu sync.Mutex
	var seen []seenFrame
	net.SetFault(func(from, to string, frame []byte) (bool, bool) {
		mu.Lock()
		seen = append(seen, seenFrame{from, to})
		mu.Unlock()
		// Drop node-b → node-a traffic, matched by name in BOTH directions
		// of the same connection.
		return from == "node-b" && to == "node-a", false
	})
	l, err := net.Listen("node-a")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan FrameConn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	dialer, err := net.As("node-b").Dial("node-a")
	if err != nil {
		t.Fatal(err)
	}
	defer dialer.Close()
	server := <-accepted
	defer server.Close()

	// b → a is dropped by the fault...
	if err := dialer.WriteFrame([]byte("dropped")); err != nil {
		t.Fatal(err)
	}
	// ...while a → b passes.
	if err := server.WriteFrame([]byte("delivered")); err != nil {
		t.Fatal(err)
	}
	frame, err := dialer.ReadFrame()
	if err != nil || string(frame) != "delivered" {
		t.Fatalf("a->b frame = %q, %v", frame, err)
	}
	mu.Lock()
	want := map[seenFrame]bool{
		{"node-b", "node-a"}: true,
		{"node-a", "node-b"}: true,
	}
	for _, s := range seen {
		if !want[s] {
			t.Errorf("fault saw unexpected endpoints %+v (identity not stamped?)", s)
		}
	}
	if len(seen) != 2 {
		t.Errorf("fault saw %d frames, want 2", len(seen))
	}
	mu.Unlock()

	// Plain Dial stays anonymous: its frames reach the fault under an
	// inproc-client name, never a node name.
	anon, err := net.Dial("node-a")
	if err != nil {
		t.Fatal(err)
	}
	defer anon.Close()
	if err := anon.WriteFrame([]byte("anon")); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	last := seen[len(seen)-1]
	mu.Unlock()
	if !strings.HasPrefix(last.from, "inproc-client-") || last.to != "node-a" {
		t.Errorf("plain Dial frame endpoints = %+v, want anonymous inproc-client-*", last)
	}
}
