// Package batch implements the batch builder of Sec. III-A/V-C1: client
// requests are grouped into batches, the unit of ordering — one consensus
// instance carries one batch. The Policy holds the two bounds a batch may
// reach while nobody asks for it: MaxBytes (the paper's BSZ parameter) and
// MaxDelay. When a batch is actually cut is the caller's decision (the
// replica's Batcher cuts as soon as its leader can propose, see
// core.runBatcher); the builder only reports when a bound is hit.
package batch

import (
	"time"

	"gosmr/internal/wire"
)

// DefaultMaxBytes is the cap a batch may grow to while its leader's window is
// full. The paper's baseline BSZ = 1300 bytes (one Ethernet frame, Sec. VI) is
// a fill target — every batch waits to reach it — which also makes it the
// capacity of a round (WND × BSZ); as a cap that is only reached under
// backlog it can be generous.
const DefaultMaxBytes = 64 << 10

// DefaultMaxDelay bounds how long requests wait at a replica that cannot
// propose (not leader yet, window and ProposalQueue full).
const DefaultMaxDelay = 5 * time.Millisecond

// Policy bounds a batch nobody has asked for yet.
type Policy struct {
	// MaxBytes caps the batch size in encoded wire bytes (BSZ): a batch at
	// or over it is flushed even if the leader cannot propose it yet.
	MaxBytes int
	// MaxDelay flushes a non-empty batch that has waited this long; it only
	// runs out where the leader cannot propose.
	MaxDelay time.Duration
}

// withDefaults fills zero fields.
func (p Policy) withDefaults() Policy {
	if p.MaxBytes <= 0 {
		p.MaxBytes = DefaultMaxBytes
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = DefaultMaxDelay
	}
	return p
}

// Builder accumulates requests into a batch under a Policy. Not safe for
// concurrent use; it is owned by the Batcher thread.
type Builder struct {
	policy  Policy
	reqs    []*wire.ClientRequest
	bytes   int
	since   time.Time
	recycle func(*wire.ClientRequest)
}

// NewBuilder returns an empty builder with p (zero fields defaulted).
func NewBuilder(p Policy) *Builder {
	return &Builder{policy: p.withDefaults(), bytes: wire.BatchOverhead}
}

// Policy returns the effective (defaulted) policy.
func (b *Builder) Policy() Policy { return b.policy }

// SetRecycle installs f to be called with each request after Flush has
// encoded it into the batch — the hand-back point of the pipeline's request
// ownership chain (typically wire.Release, returning the struct to the
// decode pool). The caller must not touch flushed requests afterwards. Nil
// (the default) disables recycling.
func (b *Builder) SetRecycle(f func(*wire.ClientRequest)) { b.recycle = f }

// Len returns the number of buffered requests.
func (b *Builder) Len() int { return len(b.reqs) }

// Bytes returns the encoded size of the current batch.
func (b *Builder) Bytes() int { return b.bytes }

// Add appends req — always; nothing is refused — and reports whether the
// batch is now at or over MaxBytes and must be flushed. A caller that flushes
// when told so never builds a batch more than one request over the cap, and a
// request larger than the cap travels alone or as the last of its batch. The
// MaxDelay clock starts at the first appended request of each batch — never
// at builder creation or at the previous flush — so time the batcher spends
// idle waiting for traffic can not eat into a later batch's flush delay (see
// the idle-then-burst regression test).
func (b *Builder) Add(req *wire.ClientRequest) (full bool) {
	if len(b.reqs) == 0 {
		b.since = time.Now()
	}
	b.reqs = append(b.reqs, req)
	b.bytes += wire.EncodedRequestSize(len(req.Payload))
	return b.bytes >= b.policy.MaxBytes
}

// Deadline returns the flush deadline for the current batch. While the
// builder is empty there is no pending batch and therefore no deadline; the
// far future is returned so a caller polling Deadline cannot spuriously
// flush-expire a batch that has not started.
func (b *Builder) Deadline() time.Time {
	if len(b.reqs) == 0 {
		return time.Now().Add(365 * 24 * time.Hour)
	}
	return b.since.Add(b.policy.MaxDelay)
}

// Flush encodes and returns the batch, resetting the builder (including the
// MaxDelay clock, which the next batch's first Add restarts). It returns
// nil when empty. The request slice is reused across flushes and the batch
// value is allocated at its exact encoded size (b.bytes tracks it
// incrementally) — the one allocation per batch that is inherent, since the
// value is retained by the replicated log.
func (b *Builder) Flush() []byte {
	if len(b.reqs) == 0 {
		return nil
	}
	enc := wire.AppendBatch(make([]byte, 0, b.bytes), b.reqs)
	if b.recycle != nil {
		for i, req := range b.reqs {
			b.recycle(req)
			b.reqs[i] = nil
		}
	}
	b.reqs = b.reqs[:0]
	b.bytes = wire.BatchOverhead
	b.since = time.Time{}
	return enc
}
