// Package replycache implements the reply cache of Sec. V-D: the table of
// each client's last executed sequence number and reply, used for at-most-
// once execution. It is queried by every ClientIO thread on request arrival
// and updated by the ServiceManager thread after execution, so under load it
// is hit from many threads at once.
//
// Sharded spreads the table over 2^k fine-grained locks, the analogue of
// the java.util.concurrent.ConcurrentHashMap the paper adopted, which
// "eliminated any signs of contention in the reply cache". Its locks
// integrate with package profiling so contention shows up as blocked time
// exactly like the paper's measurements.
package replycache

import (
	"encoding/binary"
	"errors"
	"sort"

	"gosmr/internal/profiling"
)

// Status classifies a Lookup result.
type Status uint8

// Lookup outcomes.
const (
	// StatusNew means the sequence number is newer than anything executed:
	// the request should be ordered and executed.
	StatusNew Status = iota + 1
	// StatusCached means the request is the client's most recent executed
	// one; the cached reply must be returned without re-execution.
	StatusCached
	// StatusStale means the request is older than the client's last executed
	// one; the reply is gone and the request must be ignored.
	StatusStale
)

// String returns a label for s.
func (s Status) String() string {
	switch s {
	case StatusNew:
		return "new"
	case StatusCached:
		return "cached"
	case StatusStale:
		return "stale"
	default:
		return "unknown"
	}
}

type entry struct {
	seq   uint64
	reply []byte
}

// numShards is the shard count of the fine-grained implementation. 64 shards
// comfortably exceed any realistic ClientIO pool size, so the probability of
// two threads colliding on a shard is small.
const numShards = 64

type shard struct {
	mu profiling.Mutex
	m  map[uint64]entry
}

// Sharded is the fine-grained-locking reply cache.
type Sharded struct {
	shards [numShards]shard
}

// NewSharded returns an empty sharded cache.
func NewSharded() *Sharded {
	c := &Sharded{}
	for i := range c.shards {
		c.shards[i].m = make(map[uint64]entry)
	}
	return c
}

// shardFor maps a client ID to its shard with a Fibonacci hash, so
// sequentially assigned client IDs still spread across shards.
func (c *Sharded) shardFor(client uint64) *shard {
	const fib = 0x9E3779B97F4A7C15
	return &c.shards[(client*fib)>>(64-6)]
}

// Lookup classifies (client, seq) and returns the cached reply when
// StatusCached. th accounts lock contention (may be nil).
func (c *Sharded) Lookup(th *profiling.Thread, client, seq uint64) ([]byte, Status) {
	s := c.shardFor(client)
	s.mu.Lock(th)
	defer s.mu.Unlock()
	return classify(s.m, client, seq)
}

// Update records the reply for the client's executed request seq. Updates
// with seq lower than the recorded one are ignored.
func (c *Sharded) Update(th *profiling.Thread, client, seq uint64, reply []byte) {
	s := c.shardFor(client)
	s.mu.Lock(th)
	defer s.mu.Unlock()
	store(s.m, client, seq, reply)
}

// Len returns the number of clients tracked.
func (c *Sharded) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock(nil)
		n += len(s.m)
		s.mu.Unlock()
	}
	return n
}

// LastSeqs returns every client's last recorded sequence number — used to
// rebuild the execution scheduler's at-most-once table after a snapshot
// install.
func (c *Sharded) LastSeqs() map[uint64]uint64 {
	out := make(map[uint64]uint64)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock(nil)
		for k, v := range s.m {
			out[k] = v.seq
		}
		s.mu.Unlock()
	}
	return out
}

// Marshal serializes the cache for snapshots/state transfer.
func (c *Sharded) Marshal() []byte {
	merged := make(map[uint64]entry)
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock(nil)
		for k, v := range s.m {
			merged[k] = v
		}
		s.mu.Unlock()
	}
	return marshalMap(merged)
}

// Restore replaces the contents from a Marshal-ed blob.
func (c *Sharded) Restore(b []byte) error {
	m, err := unmarshalMap(b)
	if err != nil {
		return err
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock(nil)
		s.m = make(map[uint64]entry)
		s.mu.Unlock()
	}
	for k, v := range m {
		s := c.shardFor(k)
		s.mu.Lock(nil)
		s.m[k] = v
		s.mu.Unlock()
	}
	return nil
}

func classify(m map[uint64]entry, client, seq uint64) ([]byte, Status) {
	e, ok := m[client]
	switch {
	case !ok || seq > e.seq:
		return nil, StatusNew
	case seq == e.seq:
		return e.reply, StatusCached
	default:
		return nil, StatusStale
	}
}

func store(m map[uint64]entry, client, seq uint64, reply []byte) {
	if e, ok := m[client]; ok && seq <= e.seq {
		return
	}
	m[client] = entry{seq: seq, reply: reply}
}

// ErrCorrupt reports a malformed marshaled cache.
var ErrCorrupt = errors.New("replycache: corrupt snapshot")

// marshalMap serializes entries in ascending client order, so two caches
// with equal contents produce byte-identical blobs — required for comparing
// snapshots across replicas (and worker counts) in the determinism tests.
func marshalMap(m map[uint64]entry) []byte {
	clients := make([]uint64, 0, len(m))
	for k := range m {
		clients = append(clients, k)
	}
	sort.Slice(clients, func(i, j int) bool { return clients[i] < clients[j] })
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(m)))
	for _, k := range clients {
		v := m[k]
		b = binary.LittleEndian.AppendUint64(b, k)
		b = binary.LittleEndian.AppendUint64(b, v.seq)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(v.reply)))
		b = append(b, v.reply...)
	}
	return b
}

func unmarshalMap(b []byte) (map[uint64]entry, error) {
	if len(b) < 4 {
		return nil, ErrCorrupt
	}
	n := binary.LittleEndian.Uint32(b)
	b = b[4:]
	// Validate the untrusted count against the remaining bytes before
	// allocating: every entry occupies at least 20 bytes (client + seq +
	// reply length), so a corrupt or malicious blob with a huge count is
	// rejected here instead of ballooning the map pre-allocation.
	if uint64(n)*20 > uint64(len(b)) {
		return nil, ErrCorrupt
	}
	m := make(map[uint64]entry, n)
	for range n {
		if len(b) < 20 {
			return nil, ErrCorrupt
		}
		k := binary.LittleEndian.Uint64(b)
		seq := binary.LittleEndian.Uint64(b[8:])
		rl := binary.LittleEndian.Uint32(b[16:])
		b = b[20:]
		if uint64(rl) > uint64(len(b)) {
			return nil, ErrCorrupt
		}
		reply := make([]byte, rl)
		copy(reply, b[:rl])
		b = b[rl:]
		m[k] = entry{seq: seq, reply: reply}
	}
	if len(b) != 0 {
		return nil, ErrCorrupt
	}
	return m, nil
}
