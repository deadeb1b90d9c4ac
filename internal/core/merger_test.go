package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"gosmr/internal/service"
	"gosmr/internal/snapshot"
	"gosmr/internal/transport"
	"gosmr/internal/wire"
)

// mergeRun feeds the per-group streams into a mergeState in the given
// arrival order and returns the concatenated merged output.
func mergeRun(groups int, arrivals []groupDecision) []mergedDecision {
	m := newMergeState(groups)
	var out []mergedDecision
	for _, a := range arrivals {
		out = append(out, m.feed(a.group, a.item.id, a.item.value)...)
	}
	return out
}

// TestMergeDeterminismProperty is the merge-stage analogue of the executor
// determinism tests: for G in {1, 2, 4}, any interleaving of the per-group
// decision arrivals must yield the same merged sequence — the merge is a
// pure function of the per-group logs, not of delivery timing.
func TestMergeDeterminismProperty(t *testing.T) {
	for _, groups := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("groups=%d", groups), func(t *testing.T) {
			const slots = 40
			// Build each group's (deterministic) decision stream.
			streams := make([][]groupDecision, groups)
			for g := range groups {
				for s := range slots {
					streams[g] = append(streams[g], groupDecision{group: g,
						item: decisionItem{id: wire.InstanceID(s),
							value: []byte(fmt.Sprintf("g%d-s%d", g, s))}})
				}
			}
			// Reference: strictly in-order, group-major arrival.
			var reference []groupDecision
			for _, st := range streams {
				reference = append(reference, st...)
			}
			want := mergeRun(groups, reference)
			if len(want) != groups*slots {
				t.Fatalf("reference merge emitted %d of %d", len(want), groups*slots)
			}
			// The merged order is the round-robin over slots.
			for i, d := range want {
				if d.id != wire.InstanceID(i) {
					t.Fatalf("merged id %d at position %d", d.id, i)
				}
				exp := fmt.Sprintf("g%d-s%d", i%groups, i/groups)
				if string(d.value) != exp {
					t.Fatalf("merged[%d] = %q, want %q", i, d.value, exp)
				}
			}
			// Property: random interleavings (preserving each stream's
			// internal order, as the per-group channels do) agree exactly.
			for trial := range 50 {
				rng := rand.New(rand.NewSource(int64(1000*groups + trial)))
				idx := make([]int, groups)
				var arrivals []groupDecision
				for len(arrivals) < groups*slots {
					g := rng.Intn(groups)
					if idx[g] < slots {
						arrivals = append(arrivals, streams[g][idx[g]])
						idx[g]++
					}
				}
				got := mergeRun(groups, arrivals)
				if len(got) != len(want) {
					t.Fatalf("trial %d emitted %d of %d", trial, len(got), len(want))
				}
				for i := range got {
					if got[i].id != want[i].id || !bytes.Equal(got[i].value, want[i].value) {
						t.Fatalf("trial %d diverged at %d: %q vs %q", trial, i, got[i].value, want[i].value)
					}
				}
			}
		})
	}
}

// TestMergeSnapshotJump verifies that a snapshot surfacing mid-stream jumps
// every group's position to its share of the covered prefix, drops stale
// buffered decisions, and rejects stale or topology-mismatched snapshots.
func TestMergeSnapshotJump(t *testing.T) {
	const groups = 4
	m := newMergeState(groups)
	// Buffer some early decisions that the snapshot will supersede, one
	// ahead of it that must survive, and — crucially — the exact slot the
	// cursor will land on after the jump (merged index 100 = group 0,
	// slot 25): it must be emitted by the post-snapshot drain, not sit
	// buffered until unrelated traffic arrives.
	m.feed(1, 0, []byte("stale"))
	m.feed(2, 30, []byte("ahead"))
	m.feed(0, 25, []byte("cursor"))

	snap := &Snapshot{Manifest: snapshot.Manifest{Cut: 99, Groups: groups}}
	if !m.feedSnapshot(snap) {
		t.Fatal("snapshot rejected")
	}
	if m.next != 100 {
		t.Errorf("next = %d, want 100", m.next)
	}
	for g := range groups {
		if want := wire.GroupCut(99, groups, g); m.expect[g] != want {
			t.Errorf("expect[%d] = %d, want %d", g, m.expect[g], want)
		}
	}
	if len(m.pending[1]) != 0 {
		t.Error("stale pending decision survived the snapshot")
	}
	if len(m.pending[2]) != 1 {
		t.Error("ahead-of-snapshot pending decision was dropped")
	}
	// The jump landed the cursor on the buffered group-0 slot 25: the
	// post-snapshot drain must emit it as merged index 100 immediately.
	if out := m.drain(); len(out) != 1 || out[0].id != 100 || string(out[0].value) != "cursor" {
		t.Fatalf("post-snapshot drain = %+v, want the buffered cursor slot at merged index 100", out)
	}

	// Stale snapshot (behind the merge position) is rejected.
	if m.feedSnapshot(&Snapshot{Manifest: snapshot.Manifest{Cut: 50, Groups: groups}}) {
		t.Error("stale snapshot accepted")
	}
	// Topology mismatch is rejected.
	if m.feedSnapshot(&Snapshot{Manifest: snapshot.Manifest{Cut: 500, Groups: 2}}) {
		t.Error("mismatched-groups snapshot accepted")
	}

	// The merge resumes exactly at the post-drain round-robin position:
	// merged index 101 belongs to group 101%4 = 1, slot 101/4 = 25.
	out := m.feed(1, 25, []byte("resume"))
	if len(out) != 1 || out[0].id != 101 || string(out[0].value) != "resume" {
		t.Errorf("post-snapshot feed = %+v", out)
	}
}

// TestGroupClusterDeterminism drives the randomized mixed-conflict KV
// workload through a 3-replica cluster across ordering-group counts {1,2,4}
// × executor workers {1,8} and requires every replica to end with
// byte-identical service snapshots and reply caches: the merge stage keeps
// the total order — and therefore execution, at-most-once classification,
// and snapshot state — deterministic regardless of how requests spread over
// groups and workers.
func TestGroupClusterDeterminism(t *testing.T) {
	const (
		clients       = 6
		reqsPerClient = 30
		sharedKeys    = 3
	)
	for _, groups := range []int{1, 2, 4} {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("groups=%d,workers=%d", groups, workers), func(t *testing.T) {
				net := transport.NewInproc(0)
				peers := []string{"gdet-0", "gdet-1", "gdet-2"}
				svcs := make([]*service.KV, 3)
				reps := make([]*Replica, 3)
				for i := range 3 {
					svcs[i] = service.NewKV()
					r, err := NewReplica(Config{
						ID: i, PeerAddrs: peers, ClientAddr: fmt.Sprintf("gdet-c%d", i),
						Network: net, Batch: batchPolicy(),
						Groups: groups, ExecutorWorkers: workers,
					}, svcs[i])
					if err != nil {
						t.Fatal(err)
					}
					if err := r.Start(); err != nil {
						t.Fatal(err)
					}
					defer r.Stop()
					reps[i] = r
				}
				waitAllGroupLeaders(t, reps[0])

				var wg sync.WaitGroup
				for c := range clients {
					wg.Add(1)
					go func() {
						defer wg.Done()
						rng := rand.New(rand.NewSource(int64(1000*groups + 100*workers + c)))
						conn, err := net.Dial("gdet-c0")
						if err != nil {
							t.Error(err)
							return
						}
						defer conn.Close()
						for seq := 1; seq <= reqsPerClient; seq++ {
							var payload []byte
							switch p := rng.Intn(100); {
							case p < 5:
								payload = []byte{0xEE} // unknown opcode: global barrier, group 0
							case p < 40:
								key := fmt.Sprintf("hot-%d", rng.Intn(sharedKeys))
								payload = service.EncodePut(key, []byte(fmt.Sprintf("c%d-s%d", c, seq)))
							case p < 55:
								payload = service.EncodeGet(fmt.Sprintf("hot-%d", rng.Intn(sharedKeys)))
							case p < 65:
								payload = service.EncodeDel(fmt.Sprintf("hot-%d", rng.Intn(sharedKeys)))
							default:
								key := fmt.Sprintf("c%d-k%d", c, rng.Intn(4))
								payload = service.EncodePut(key, []byte(fmt.Sprintf("v%d", seq)))
							}
							req := &wire.ClientRequest{ClientID: uint64(300 + c), Seq: uint64(seq), Payload: payload}
							// Raw wire client: resend on a redirect reply
							// (a group whose Phase 1 has not finished yet
							// answers OK:false) instead of silently losing
							// the request.
							for {
								if err := conn.WriteFrame(wire.Marshal(req)); err != nil {
									t.Error(err)
									return
								}
								frame, err := conn.ReadFrame()
								if err != nil {
									t.Error(err)
									return
								}
								msg, err := wire.Unmarshal(frame)
								if err != nil {
									t.Error(err)
									return
								}
								if reply, ok := msg.(*wire.ClientReply); ok && reply.OK {
									break
								}
								time.Sleep(2 * time.Millisecond)
							}
						}
					}()
				}
				wg.Wait()

				// Every replica (leader and followers) must execute the full log.
				total := uint64(clients * reqsPerClient)
				deadline := time.Now().Add(15 * time.Second)
				for _, r := range reps {
					for r.Executed() < total && time.Now().Before(deadline) {
						time.Sleep(2 * time.Millisecond)
					}
					if got := r.Executed(); got != total {
						t.Fatalf("replica %d executed %d of %d", r.ID(), got, total)
					}
				}

				// Byte-identical service snapshots and reply caches across
				// the cluster: the merged order was the same everywhere.
				wantSnap, err := svcs[0].Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				wantCache := reps[0].replyCache.Marshal()
				for i := 1; i < 3; i++ {
					snap, err := svcs[i].Snapshot()
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(wantSnap, snap) {
						t.Errorf("replica %d service snapshot diverged from replica 0", i)
					}
					if !bytes.Equal(wantCache, reps[i].replyCache.Marshal()) {
						t.Errorf("replica %d reply cache diverged from replica 0", i)
					}
				}
			})
		}
	}
}

// waitAllGroupLeaders blocks until r leads every ordering group (each
// group's Phase 1 completes independently; tests that send raw requests to
// arbitrary groups must wait for all of them, not just group 0).
func waitAllGroupLeaders(t *testing.T, r *Replica) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for _, g := range r.groups {
		for !g.isLeader.Load() {
			if !time.Now().Before(deadline) {
				t.Fatalf("group %d never established leadership", g.idx)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
}

// TestMultiGroupObservability verifies the per-group queues surface in
// QueueStats under their group-suffixed names and that requests spread over
// multiple groups on a multi-group leader.
func TestMultiGroupObservability(t *testing.T) {
	net := transport.NewInproc(0)
	r, err := NewReplica(Config{
		ID: 0, PeerAddrs: []string{"mgobs-peer"}, ClientAddr: "mgobs-client",
		Network: net, Batch: batchPolicy(), Groups: 2,
	}, service.NewKV())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	waitAllGroupLeaders(t, r)

	stats := r.QueueStats()
	for _, name := range []string{
		"RequestQueue", "ProposalQueue", "DispatcherQueue",
		"RequestQueue-g1", "ProposalQueue-g1", "DispatcherQueue-g1",
		"MergeQueue", "DecisionQueue",
	} {
		if _, ok := stats[name]; !ok {
			t.Errorf("QueueStats missing %s (have %v)", name, stats)
		}
	}

	conn, err := net.Dial("mgobs-client")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Enough distinct keys that both groups see traffic.
	for seq := 1; seq <= 32; seq++ {
		req := &wire.ClientRequest{ClientID: 91, Seq: uint64(seq),
			Payload: service.EncodePut(fmt.Sprintf("mg-key-%d", seq), []byte("v"))}
		if err := conn.WriteFrame(wire.Marshal(req)); err != nil {
			t.Fatal(err)
		}
		if _, err := conn.ReadFrame(); err != nil {
			t.Fatal(err)
		}
	}
	if got := r.Executed(); got != 32 {
		t.Errorf("Executed = %d, want 32", got)
	}
	if got := r.DecidedBatches(); got == 0 {
		t.Error("DecidedBatches = 0 after traffic")
	}
	// Both groups decided instances (keys spread across them).
	for g, grp := range r.groups {
		if grp.decidedUpTo.Load() == 0 {
			t.Errorf("group %d decided nothing (routing did not spread)", g)
		}
	}
}
