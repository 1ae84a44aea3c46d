package callgraph

import (
	"testing"

	"repro/internal/lint/load"
)

const fixtureBase = "repro/internal/lint/callgraph/testdata/multi"

// loadMulti loads the two-package fixture (b imports a) exactly the way
// kvet loads the tree: one Load call, a's imports resolved from source, b's
// view of a resolved through export data.
func loadMulti(t *testing.T) []*load.Package {
	t.Helper()
	pkgs, err := load.Load(load.Config{Dir: "testdata/multi"}, "./...")
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("got %d packages, want 2", len(pkgs))
	}
	return pkgs
}

func analyzeMulti(t *testing.T, bounded []string) (*Store, *Graph) {
	t.Helper()
	store := NewStore()
	g := Analyze(loadMulti(t), store, bounded)
	return store, g
}

func TestDirectSummaries(t *testing.T) {
	_, g := analyzeMulti(t, nil)

	sleepy := g.Func(fixtureBase + "/a.Sleepy")
	if sleepy == nil {
		t.Fatal("no summary for a.Sleepy")
	}
	if sleepy.Blocks&Sleep == 0 {
		t.Errorf("a.Sleepy Blocks = %v, want Sleep", sleepy.Blocks)
	}

	ctxOK := g.Func(fixtureBase + "/a.CtxOK")
	if ctxOK == nil {
		t.Fatal("no summary for a.CtxOK")
	}
	if ctxOK.Blocks&Chan == 0 {
		t.Errorf("a.CtxOK Blocks = %v, want Chan", ctxOK.Blocks)
	}

	if calm := g.Func(fixtureBase + "/a.Calm"); calm == nil || calm.Blocks != 0 || calm.MayBlock != 0 {
		t.Errorf("a.Calm should have no blocking classes, got %+v", calm)
	}

	if bump := g.Func("(*" + fixtureBase + "/a.Counter).Bump"); bump == nil {
		t.Error("no summary under the method key (*a.Counter).Bump")
	}
}

func TestCrossPackagePropagation(t *testing.T) {
	_, g := analyzeMulti(t, nil)

	// b.Cold calls a.Sleepy across the package boundary; the callee key
	// must match the fact exported when a was summarized.
	cold := g.Func(fixtureBase + "/b.Cold")
	if cold == nil {
		t.Fatal("no summary for b.Cold")
	}
	if cold.Blocks != 0 {
		t.Errorf("b.Cold has no direct blocking ops, got %v", cold.Blocks)
	}
	if cold.MayBlock&Sleep == 0 {
		t.Errorf("b.Cold MayBlock = %v, want Sleep via a.Sleepy", cold.MayBlock)
	}

	// Two hops: b.Handler -> a.Chain -> a.Sleepy.
	handler := g.Func(fixtureBase + "/b.Handler")
	if handler == nil || handler.MayBlock&Sleep == 0 {
		t.Errorf("b.Handler should reach a.Sleepy's sleep, got %+v", handler)
	}

	// Method call across the boundary resolves to the method key.
	um := g.Func(fixtureBase + "/b.UsesMethod")
	wantCallee := "(*" + fixtureBase + "/a.Counter).Bump"
	found := false
	for _, c := range um.Callees {
		if c == wantCallee {
			found = true
		}
	}
	if !found {
		t.Errorf("b.UsesMethod callees = %v, want %s", um.Callees, wantCallee)
	}
}

func TestBoundedSuppressesEdge(t *testing.T) {
	_, g := analyzeMulti(t, []string{fixtureBase + "/a.Sleepy"})
	if cold := g.Func(fixtureBase + "/b.Cold"); cold.MayBlock != 0 {
		t.Errorf("with a.Sleepy bounded, b.Cold MayBlock = %v, want none", cold.MayBlock)
	}
	// The closure inside Fanout still attributes to Fanout itself when the
	// callee is not bounded; with it bounded the attribution disappears too.
	if f := g.Func(fixtureBase + "/b.Fanout"); f.MayBlock != 0 {
		t.Errorf("bounded callee should not leak through the closure, got %v", f.MayBlock)
	}
}

// TestLaneCallbacksFollowed: a bounded fork-join's own channel ops do not
// count against its caller, but what it runs does: the Run method of a
// task handed to it, and a function value handed to it.
func TestLaneCallbacksFollowed(t *testing.T) {
	_, g := analyzeMulti(t, []string{fixtureBase + "/a.Fork", fixtureBase + "/a.Both"})
	lanes := g.Func(fixtureBase + "/b.Lanes")
	if lanes == nil || lanes.MayBlock != Sleep {
		t.Fatalf("b.Lanes should reach the sleep of the forked task and nothing else, got %+v", lanes)
	}
	wantCallee := "(*" + fixtureBase + "/a.SleepTask).Run"
	found := false
	for _, c := range lanes.Callees {
		found = found || c == wantCallee
	}
	if !found {
		t.Errorf("b.Lanes callees = %v, want %s", lanes.Callees, wantCallee)
	}
	if calm := g.Func(fixtureBase + "/b.CalmLanes"); calm == nil || calm.MayBlock != 0 {
		t.Errorf("b.CalmLanes forks calm tasks through a bounded fork-join, got %+v", calm)
	}
	if funcs := g.Func(fixtureBase + "/b.LaneFuncs"); funcs == nil || funcs.MayBlock != Sleep {
		t.Errorf("b.LaneFuncs should reach a.Sleepy through the function value, got %+v", funcs)
	}

	// Unbounded, the fork-join is an ordinary callee: its own channel
	// ops count, and its arguments are not followed.
	_, g = analyzeMulti(t, nil)
	if calm := g.Func(fixtureBase + "/b.CalmLanes"); calm == nil || calm.MayBlock&Chan == 0 {
		t.Errorf("unbounded a.Fork should block b.CalmLanes on its channel, got %+v", calm)
	}
}

func TestStoreRoundTrip(t *testing.T) {
	store, _ := analyzeMulti(t, nil)
	var f FuncFact
	if !store.ObjectFact(fixtureBase+"/a.Sleepy", &f) {
		t.Fatal("fact for a.Sleepy not in store")
	}
	if f.Key != fixtureBase+"/a.Sleepy" || f.Blocks&Sleep == 0 {
		t.Errorf("round-tripped fact mismatch: %+v", f)
	}
	if store.ObjectFact(fixtureBase+"/a.NoSuch", &f) {
		t.Error("lookup of an absent key must fail")
	}
}
