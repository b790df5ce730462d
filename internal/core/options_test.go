package core

import (
	"testing"
	"testing/quick"
	"time"
)

func TestResolvePlanBaseline(t *testing.T) {
	pl, err := resolvePlan(Options{Strategy: StrategyBaseline}, 32, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Transport != 32 || pl.GroupSize != 1 {
		t.Fatalf("baseline plan = %+v", pl)
	}
}

func TestResolvePlanPLogGPMatchesModel(t *testing.T) {
	// 1 MiB with the Niagara model and 4 ms delay: Table I says 2.
	pl, err := resolvePlan(Options{Strategy: StrategyPLogGP}, 32, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Transport != 2 || pl.GroupSize != 16 {
		t.Fatalf("plan = %+v, want 2 transport partitions of 16", pl)
	}
	// 128 MiB: Table I says 32.
	pl, err = resolvePlan(Options{Strategy: StrategyPLogGP}, 32, 128<<20)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Transport != 32 {
		t.Fatalf("plan at 128MiB = %+v, want 32", pl)
	}
}

func TestResolvePlanOverrides(t *testing.T) {
	pl, err := resolvePlan(Options{Strategy: StrategyPLogGP, TransportParts: 8, QPs: 3}, 32, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Transport != 8 || pl.QPs != 3 {
		t.Fatalf("plan = %+v", pl)
	}
	// QPs clamp to transport count.
	pl, err = resolvePlan(Options{TransportParts: 2, QPs: 8, Strategy: StrategyPLogGP}, 32, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if pl.QPs != 2 {
		t.Fatalf("QPs = %d, want clamp to 2", pl.QPs)
	}
}

func TestResolvePlanDivisibility(t *testing.T) {
	// At 24 MiB the model picks 16 transport partitions for 24 user
	// partitions; 16 does not divide 24, so the plan halves it to 8.
	if got := initModel.OptimalTransport(24<<20, 24, modelDelay); got != 16 {
		t.Fatalf("model pick = %d, want 16", got)
	}
	pl, err := resolvePlan(Options{Strategy: StrategyPLogGP}, 24, 24<<20)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Transport != 8 || pl.GroupSize != 3 {
		t.Fatalf("plan = %+v", pl)
	}
}

func TestResolvePlanErrors(t *testing.T) {
	if _, err := resolvePlan(Options{}, 0, 1024); err == nil {
		t.Error("zero partitions accepted")
	}
	if _, err := resolvePlan(Options{TransportParts: 64}, 32, 1024); err == nil {
		t.Error("transport > user partitions accepted")
	}
	for _, transport := range []int{3, 12, 24} {
		if _, err := resolvePlan(Options{TransportParts: transport}, 32, 1024); err == nil {
			t.Errorf("transport %d, which does not divide 32, accepted", transport)
		}
	}
	if _, err := resolvePlan(Options{Strategy: StrategyTuningTable}, 4, 1024); err == nil {
		t.Error("tuning without table accepted")
	}
	if _, err := resolvePlan(Options{Strategy: Strategy(99)}, 4, 1024); err == nil {
		t.Error("unknown strategy accepted")
	}
	if _, err := resolvePlan(Options{QPs: -1}, 4, 1024); err == nil {
		t.Error("negative QPs accepted")
	}
}

func TestResolvePlanInvariants(t *testing.T) {
	f := func(partsRaw uint8, sizeRaw uint32) bool {
		parts := int(partsRaw%128) + 1
		size := (int(sizeRaw%(64<<20)) + parts) / parts * parts // divisible
		pl, err := resolvePlan(Options{Strategy: StrategyPLogGP}, parts, size)
		if err != nil {
			return false
		}
		return pl.Transport >= 1 && pl.Transport <= parts &&
			parts%pl.Transport == 0 &&
			pl.GroupSize*pl.Transport == parts &&
			pl.QPs >= 1 && pl.QPs <= pl.Transport
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPlanGroupMapping(t *testing.T) {
	pl := Plan{Transport: 4, GroupSize: 8, QPs: 2}
	if pl.groupOf(0) != 0 || pl.groupOf(7) != 0 || pl.groupOf(8) != 1 || pl.groupOf(31) != 3 {
		t.Fatal("groupOf mapping wrong")
	}
	if pl.qpOf(0) != 0 || pl.qpOf(1) != 1 || pl.qpOf(2) != 0 {
		t.Fatal("qpOf mapping wrong")
	}
}

func TestTuningTableLookupFloors(t *testing.T) {
	tb := NewTuningTable()
	tb.Set(TuningKey{UserParts: 32, Bytes: 1024}, TuningValue{Transport: 1, QPs: 1})
	tb.Set(TuningKey{UserParts: 32, Bytes: 65536}, TuningValue{Transport: 8, QPs: 4})
	tb.Set(TuningKey{UserParts: 16, Bytes: 1024}, TuningValue{Transport: 2, QPs: 2})

	if v, ok := tb.Lookup(32, 65536); !ok || v.Transport != 8 {
		t.Fatalf("Lookup(32,64K) = %+v %v", v, ok)
	}
	if v, ok := tb.Lookup(32, 32768); !ok || v.Transport != 1 {
		t.Fatalf("Lookup(32,32K) should floor to 1024 entry: %+v %v", v, ok)
	}
	if v, ok := tb.Lookup(32, 1<<30); !ok || v.Transport != 8 {
		t.Fatalf("Lookup(32,1G) = %+v %v", v, ok)
	}
	if v, ok := tb.Lookup(16, 100); !ok || v.Transport != 2 {
		t.Fatalf("Lookup(16,100) clamps up: %+v %v", v, ok)
	}
	if _, ok := tb.Lookup(64, 1024); ok {
		t.Fatal("Lookup for unmeasured partition count reported ok")
	}
	if tb.Len() != 3 {
		t.Fatalf("Len = %d", tb.Len())
	}
}

func TestTuningStrategyUsesTableQPs(t *testing.T) {
	tb := NewTuningTable()
	tb.Set(TuningKey{UserParts: 32, Bytes: 1}, TuningValue{Transport: 4, QPs: 2})
	pl, err := resolvePlan(Options{Strategy: StrategyTuningTable, Table: tb}, 32, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if pl.Transport != 4 || pl.QPs != 2 {
		t.Fatalf("plan = %+v", pl)
	}
}

func TestDeltaDefault(t *testing.T) {
	if (Options{}).delta() != 35*time.Microsecond {
		t.Fatalf("default delta = %v", (Options{}).delta())
	}
	if (Options{Delta: time.Millisecond}).delta() != time.Millisecond {
		t.Fatal("explicit delta ignored")
	}
}
