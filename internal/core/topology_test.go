package core

import (
	"errors"
	"testing"
	"time"

	"gosmr/internal/service"
	"gosmr/internal/transport"
	"gosmr/internal/wire"
)

// TestReconfigOutcome pins down the win/lose verdict a proposer derives from
// the committed topology: a success must mean the requested change is really
// in the committed shape, anything else is ErrReconfigConflict.
func TestReconfigOutcome(t *testing.T) {
	topo := &wire.Topology{
		Epoch:   1,
		Groups:  1,
		Peers:   []string{"p0", "p1", "", "p3"},
		Clients: []string{"c0", "c1", "", "c3"},
	}
	cases := []struct {
		name      string
		remove    int
		peer, cli string
		wantErr   bool
	}{
		{name: "add won", remove: -1, peer: "p3", cli: "c3"},
		{name: "add won, no client addr requested", remove: -1, peer: "p3"},
		{name: "add lost the slot", remove: -1, peer: "p9", cli: "c9", wantErr: true},
		{name: "add address present but client addr differs", remove: -1, peer: "p3", cli: "cX", wantErr: true},
		{name: "remove won", remove: 2},
		{name: "remove lost, peer still active", remove: 1, wantErr: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := reconfigOutcome(topo, tc.remove, tc.peer, tc.cli)
			if tc.wantErr {
				if !errors.Is(err, ErrReconfigConflict) {
					t.Fatalf("got %v, want ErrReconfigConflict", err)
				}
			} else if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
		})
	}
}

// TestReaderFence pins the reader's decision for one decoded peer frame.
func TestReaderFence(t *testing.T) {
	topo := &wire.TopoUpdate{Topo: wire.Topology{Epoch: 5, Peers: []string{"a"}}}
	accept := &wire.Accept{View: 1, ID: 2}
	cases := []struct {
		name   string
		epoch  int64
		group  int32
		msg    wire.Message
		mine   int64
		groups int
		want   fenceVerdict
	}{
		{"match, group 0", 0, 0, accept, 0, 1, fenceDispatch},
		{"match, last group", 3, 1, accept, 3, 2, fenceDispatch},
		{"newer epoch", 1, 0, accept, 0, 1, fenceStale},
		{"older epoch", 2, 0, accept, 3, 1, fenceStale},
		{"stale epoch beats bad group", 1, 9, accept, 0, 2, fenceStale},
		{"group past the last", 0, 2, accept, 0, 2, fenceDrop},
		{"negative group", 0, -1, accept, 0, 2, fenceDrop},
		{"TopoUpdate at a newer epoch", 5, 0, topo, 0, 1, fenceTopo},
		{"TopoUpdate at an older epoch", 0, 0, topo, 7, 1, fenceTopo},
		{"TopoUpdate at a bad group", 0, 9, topo, 0, 1, fenceTopo},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := fence(tc.epoch, tc.group, tc.msg, tc.mine, tc.groups); got != tc.want {
				t.Errorf("fence = %d, want %d", got, tc.want)
			}
		})
	}
}

// TestStaleEpochFrameDroppedAndAnswered plays peer 1 of a two-group epoch-0
// cluster by hand: a group-1 Prepare stamped with epoch 1 is dropped and
// answered with the replica's epoch-0 topology, and the same Prepare stamped
// with epoch 0 is delivered (so the drop was the fence, not the message).
func TestStaleEpochFrameDroppedAndAnswered(t *testing.T) {
	net := transport.NewInproc(0)
	r, err := NewReplica(Config{ID: 0, PeerAddrs: []string{"se-r0", "se-r1"}, ClientAddr: "se-c0",
		Network: net, Groups: 2}, service.NewKV())
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Start(); err != nil {
		t.Fatal(err)
	}
	defer r.Stop()
	conn, err := net.Dial("se-r0")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.WriteFrame(wire.Marshal(&wire.Hello{ID: 1})); err != nil {
		t.Fatal(err)
	}
	prepare := &wire.Prepare{View: 5} // view 5 is led by replica 1 at n = 2
	if err := conn.WriteFrame(wire.Marshal(&wire.PeerMsg{Epoch: 1, Group: 1, Msg: prepare})); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no TopoUpdate answered the epoch-1 frame")
		}
		frame, err := conn.ReadFrame()
		if err != nil {
			t.Fatal(err)
		}
		epoch, _, m, err := wire.UnmarshalPeer(frame)
		if err != nil {
			t.Fatalf("undecodable peer frame %x: %v", frame, err)
		}
		if tu, ok := m.(*wire.TopoUpdate); ok {
			if epoch != 0 || tu.Topo.Epoch != 0 {
				t.Fatalf("answer stamped epoch %d carries topology epoch %d, want 0 and 0", epoch, tu.Topo.Epoch)
			}
			break
		}
	}
	if v := r.groups[1].viewHint.Load(); v >= 5 {
		t.Fatalf("group 1 moved to view %d: the epoch-1 Prepare crossed the fence", v)
	}
	if err := conn.WriteFrame(wire.Marshal(&wire.PeerMsg{Epoch: 0, Group: 1, Msg: prepare})); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, "the epoch-0 Prepare reaches group 1", func() bool {
		return r.groups[1].viewHint.Load() == 5
	})
}
