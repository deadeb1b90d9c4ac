package main

import (
	"os"
	"sync"
	"sync/atomic"
	"time"

	"gosmr/internal/transport"
	"gosmr/internal/vfs"
	"gosmr/internal/wire"
)

// The traced run observes the replicas from outside through two of the seams
// gosmr.Config already has: a counting wrapper around Config.Network and a
// counting/timing wrapper around Config.FS. (The third, Config.Profiling, is
// the replica's own registry.) Both wrappers forward the optional fast-path
// extensions of what they wrap, so a traced replica takes the same code
// paths as an untraced one.

const frameHeaderBytes = 4 // the length prefix every frame carries on TCP

// netCounters are the messages and bytes the replicas moved. Peer traffic is
// counted where it is written (every peer frame is written exactly once);
// client traffic is counted on the replica's side in both directions.
type netCounters struct {
	peerFrames  atomic.Int64
	peerBytes   atomic.Int64
	clientBytes atomic.Int64
}

type netSnapshot struct{ peerFrames, peerBytes, clientBytes int64 }

func (c *netCounters) snapshot() netSnapshot {
	return netSnapshot{c.peerFrames.Load(), c.peerBytes.Load(), c.clientBytes.Load()}
}

// countingNet wraps a transport.Network. Connections to or from an address
// in peers are replica-to-replica; all others are client connections.
type countingNet struct {
	base  transport.Network
	c     *netCounters
	peers map[string]bool
}

func (n *countingNet) Listen(addr string) (transport.Listener, error) {
	l, err := n.base.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &countingListener{Listener: l, n: n, peer: n.peers[addr]}, nil
}

func (n *countingNet) Dial(addr string) (transport.FrameConn, error) {
	fc, err := n.base.Dial(addr)
	if err != nil {
		return nil, err
	}
	return n.wrap(fc, n.peers[addr]), nil
}

type countingListener struct {
	transport.Listener
	n    *countingNet
	peer bool
}

func (l *countingListener) Accept() (transport.FrameConn, error) {
	fc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.n.wrap(fc, l.peer), nil
}

// wrap returns a counting connection that implements exactly the extensions
// fc does when fc has all three (both built-in transports); a connection
// with only some of them is wrapped plainly, as an external FrameConn would
// be used.
func (n *countingNet) wrap(fc transport.FrameConn, peer bool) transport.FrameConn {
	cc := countingConn{FrameConn: fc, c: n.c, peer: peer}
	bw, okB := fc.(transport.BatchWriter)
	mw, okM := fc.(transport.MessageWriter)
	pr, okP := fc.(transport.PooledReader)
	if okB && okM && okP {
		return &countingConnExt{countingConn: cc, bw: bw, mw: mw, pr: pr}
	}
	return &cc
}

type countingConn struct {
	transport.FrameConn
	c    *netCounters
	peer bool
}

func (c *countingConn) wrote(n int) {
	if c.peer {
		c.c.peerFrames.Add(1)
		c.c.peerBytes.Add(int64(n + frameHeaderBytes))
	} else {
		c.c.clientBytes.Add(int64(n + frameHeaderBytes))
	}
}

func (c *countingConn) read(n int) {
	if !c.peer {
		c.c.clientBytes.Add(int64(n + frameHeaderBytes))
	}
}

func (c *countingConn) WriteFrame(frame []byte) error {
	c.wrote(len(frame))
	return c.FrameConn.WriteFrame(frame)
}

func (c *countingConn) ReadFrame() ([]byte, error) {
	f, err := c.FrameConn.ReadFrame()
	if err == nil {
		c.read(len(f))
	}
	return f, err
}

// countingConnExt adds the BatchWriter, MessageWriter and PooledReader
// extensions, forwarded to the wrapped connection.
type countingConnExt struct {
	countingConn
	bw transport.BatchWriter
	mw transport.MessageWriter
	pr transport.PooledReader
}

func (c *countingConnExt) WriteFrameNoFlush(frame []byte) error {
	c.wrote(len(frame))
	return c.bw.WriteFrameNoFlush(frame)
}

func (c *countingConnExt) WriteMessageNoFlush(m wire.Message) error {
	c.wrote(wire.Size(m))
	return c.mw.WriteMessageNoFlush(m)
}

func (c *countingConnExt) Flush() error { return c.bw.Flush() }

func (c *countingConnExt) ReadFramePooled() ([]byte, error) {
	f, err := c.pr.ReadFramePooled()
	if err == nil {
		c.read(len(f))
	}
	return f, err
}

// fsCounters are the filesystem operations the replicas issued.
type fsCounters struct {
	writeBytes atomic.Int64
	mu         sync.Mutex
	syncNS     []int64 // duration of every file Sync and SyncDir
}

type fsSnapshot struct {
	writeBytes int64
	syncs      int
}

func (c *fsCounters) snapshot() fsSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fsSnapshot{c.writeBytes.Load(), len(c.syncNS)}
}

// syncsBetween returns the sorted durations of syncs number from..to-1.
func (c *fsCounters) syncsBetween(from, to int) []int64 {
	c.mu.Lock()
	out := append([]int64(nil), c.syncNS[from:to]...)
	c.mu.Unlock()
	sortInt64(out)
	return out
}

func (c *fsCounters) timeSync(f func() error) error {
	t0 := time.Now()
	err := f()
	d := int64(time.Since(t0))
	c.mu.Lock()
	c.syncNS = append(c.syncNS, d)
	c.mu.Unlock()
	return err
}

// countingFS wraps a vfs.FS: it counts bytes written and times every fsync.
type countingFS struct {
	vfs.FS
	c *fsCounters
}

func (f countingFS) OpenFile(name string, flag int, perm os.FileMode) (vfs.File, error) {
	inner, err := f.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countingFile{File: inner, c: f.c}, nil
}

func (f countingFS) SyncDir(name string) error {
	return f.c.timeSync(func() error { return f.FS.SyncDir(name) })
}

type countingFile struct {
	vfs.File
	c *fsCounters
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.c.writeBytes.Add(int64(n))
	return n, err
}

func (f *countingFile) Sync() error { return f.c.timeSync(f.File.Sync) }

// Fd forwards the descriptor the WAL's preallocation looks for, so wrapped
// segment files are still fallocate'd rather than sparsely truncated. A
// wrapped file without one reports an invalid descriptor, which sends
// preallocation down its documented Truncate fallback.
func (f *countingFile) Fd() uintptr {
	if fd, ok := f.File.(interface{ Fd() uintptr }); ok {
		return fd.Fd()
	}
	return ^uintptr(0)
}
