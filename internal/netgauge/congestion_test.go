package netgauge

import (
	"reflect"
	"testing"

	"repro/internal/fabric"
)

// TestIncastVsPermutationSpread is the acceptance check for the
// congestion model: on a 2-level fat-tree, a 16:1 incast must complete at
// least 2x slower than the uncongested permutation pattern (same per-flow
// payload), and the incast must saturate the victim's down link while the
// permutation leaves every link far below it. Both patterns must also
// resolve identically, report for report, under every probed (shards,
// workers) layout.
func TestIncastVsPermutationSpread(t *testing.T) {
	topo, err := fabric.NewFatTree(fabric.FatTreeConfig{K: 8})
	if err != nil {
		t.Fatal(err)
	}
	const bytes = 256 << 10
	perm, err := Congestion(CongestionConfig{Topo: topo, Pattern: "permutation", Bytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	incast, err := Congestion(CongestionConfig{Topo: topo, Pattern: "incast:16", Bytes: bytes})
	if err != nil {
		t.Fatal(err)
	}
	if perm.Flows != topo.Hosts() || incast.Flows != 16 {
		t.Fatalf("flow counts: permutation %d, incast %d", perm.Flows, incast.Flows)
	}
	if incast.Completion < 2*perm.Completion {
		t.Errorf("16:1 incast completion %v not >= 2x permutation %v", incast.Completion, perm.Completion)
	}
	if incast.QueueP99 == 0 || incast.MaxLinkUtilization < 0.5 {
		t.Errorf("incast shows no contention: p99 queue %v, max util %.2f on %s",
			incast.QueueP99, incast.MaxLinkUtilization, incast.MaxLink)
	}
	if perm.MaxLinkUtilization >= incast.MaxLinkUtilization {
		t.Errorf("permutation max util %.2f (on %s) not below incast %.2f (on %s)",
			perm.MaxLinkUtilization, perm.MaxLink, incast.MaxLinkUtilization, incast.MaxLink)
	}
	for _, serial := range []CongestionReport{perm, incast} {
		for _, sw := range [][2]int{{2, 1}, {4, 2}, {8, 2}} {
			got, err := Congestion(CongestionConfig{
				Topo: topo, Pattern: serial.Pattern, Bytes: bytes,
				Shards: sw[0], Workers: sw[1],
			})
			if err != nil {
				t.Fatalf("%s shards=%d workers=%d: %v", serial.Pattern, sw[0], sw[1], err)
			}
			if !reflect.DeepEqual(got, serial) {
				t.Errorf("%s shards=%d workers=%d: report diverges from serial", serial.Pattern, sw[0], sw[1])
			}
		}
	}
}

// TestCongestionDeterministicAcrossShards pins the canonical-order
// discipline end to end: every pattern must produce identical reports
// under any shard and worker count, on fat-tree and dragonfly alike.
func TestCongestionDeterministicAcrossShards(t *testing.T) {
	topos := []*fabric.Topology{}
	if ft, err := fabric.NewFatTree(fabric.FatTreeConfig{K: 4}); err != nil {
		t.Fatal(err)
	} else {
		topos = append(topos, ft)
	}
	if df, err := fabric.NewDragonfly(fabric.DragonflyConfig{Groups: 4, Routers: 2, HostsPer: 1}); err != nil {
		t.Fatal(err)
	} else {
		topos = append(topos, df)
	}
	for _, topo := range topos {
		for _, pattern := range []string{"incast:4", "permutation", "bisection"} {
			base, err := Congestion(CongestionConfig{Topo: topo, Pattern: pattern, Bytes: 128 << 10})
			if err != nil {
				t.Fatalf("%s/%s serial: %v", topo.Name(), pattern, err)
			}
			for _, shards := range []int{2, 4, 8} {
				for _, workers := range []int{1, 2} {
					got, err := Congestion(CongestionConfig{
						Topo: topo, Pattern: pattern, Bytes: 128 << 10,
						Shards: shards, Workers: workers,
					})
					if err != nil {
						t.Fatalf("%s/%s shards=%d: %v", topo.Name(), pattern, shards, err)
					}
					if got.Completion != base.Completion {
						t.Errorf("%s/%s shards=%d workers=%d completion %v != serial %v",
							topo.Name(), pattern, shards, workers, got.Completion, base.Completion)
					}
					if got.QueueP99 != base.QueueP99 || got.MaxLinkUtilization != base.MaxLinkUtilization {
						t.Errorf("%s/%s shards=%d workers=%d link stats diverge from serial",
							topo.Name(), pattern, shards, workers)
					}
					for i, l := range got.Links {
						if b := base.Links[i]; l != b {
							t.Errorf("%s/%s shards=%d link %s diverges: %+v vs %+v",
								topo.Name(), pattern, shards, l.Name, l, b)
						}
					}
				}
			}
		}
	}
}

// TestCongestionRejectsFlatTopology pins the graph-only contract.
func TestCongestionRejectsFlatTopology(t *testing.T) {
	if _, err := Congestion(CongestionConfig{Topo: fabric.SingleLink(), Pattern: "incast:2"}); err == nil {
		t.Fatal("flat topology accepted")
	}
	topo, _ := fabric.NewFatTree(fabric.FatTreeConfig{K: 4})
	if _, err := Congestion(CongestionConfig{Topo: topo, Pattern: "ring"}); err == nil {
		t.Fatal("unknown pattern accepted")
	}
}
