package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestGroupScalingSmoke runs a reduced sweep end to end on the real
// pipeline. It asserts shape and sanity, not speedup ratios: wall-clock
// scaling depends on the host's core count, which CI does not control (the
// full sweep is `gosmr-bench -experiment groupscaling`).
func TestGroupScalingSmoke(t *testing.T) {
	r := GroupScaling(GroupOptions{
		Groups:      []int{1, 2, 4},
		Windows:     []int{4},
		ConflictPct: []int{0},
		Clients:     8,
		Delay:       500 * time.Microsecond,
		Warmup:      80 * time.Millisecond,
		Measure:     150 * time.Millisecond,
	})
	if len(r.Cells) != 3 {
		t.Fatalf("cells = %d, want 3", len(r.Cells))
	}
	for _, c := range r.Cells {
		if c.Batches <= 0 {
			t.Errorf("G=%d cell decided no batches", c.Groups)
		}
		// Evenly saturated groups always have a ready batch for the slot the
		// fill rule wants, so alignment must cost them no no-op instance.
		if c.Pads != 0 {
			t.Errorf("G=%d cell at 0%% conflict proposed %.0f pads/s, want 0", c.Groups, c.Pads)
		}
	}
	if s := r.Speedup(2, 4, 0); s <= 0 {
		t.Errorf("Speedup(2,4,0) = %v, want > 0", s)
	}
	if !strings.Contains(r.Report, "GroupScaling") {
		t.Error("report missing title")
	}
}
