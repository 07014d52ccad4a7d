package workload

import (
	"testing"

	"hpcc/internal/host"
	"hpcc/internal/sim"
)

// PlanArrivals must reproduce the lazy install exactly: same flows
// (src, dst, size), same arrival times, and — the load-bearing part —
// the same flow-ID sequence the shared single-engine counter assigns.
func TestPlanMatchesLazyInstall(t *testing.T) {
	gens := []Generator{
		PoissonSpec{CDF: WebSearch(), Load: 0.4},
		IncastSpec{FanIn: 3, Size: 50_000, LoadFrac: 0.02},
		FlowList{
			{At: 0, Src: 0, Dst: 1, Size: 1000},
			{At: 500 * sim.Microsecond, Src: 2, Dst: 3, Size: 2000},
			{At: 700 * sim.Microsecond, Src: 3, Dst: 5, Size: 3000},
		},
		ArrivalFunc(func(i int) (FlowSpec, bool) {
			if i >= 5 {
				return FlowSpec{}, false
			}
			return FlowSpec{At: sim.Time(i/2) * 300 * sim.Microsecond,
				Src: i % 4, Dst: 4 + i%3, Size: 4000}, true
		}),
	}
	const n = 8
	env := Env{HostRate: 100 * sim.Gbps, Until: 2 * sim.Millisecond, MaxFlows: 40, Seed: 9}

	plan, ok := PlanArrivals(gens, n, env)
	if !ok {
		t.Fatal("PlanArrivals refused an open-loop mix")
	}
	if len(plan) == 0 {
		t.Fatal("empty plan")
	}

	// Lazy install on a real network, exactly as the runner does it:
	// generator i gets Seed+i and the canonical arrival key that the
	// plan's (time, generator, order) emission mirrors.
	// Hosts release a flow at teardown, so completed flows are collected
	// through OnDone and any unfinished ones from the live flow maps.
	byID := map[int32]*host.Flow{}
	env.OnDone = func(f *host.Flow) { byID[f.ID] = f }
	nw := testNet(n)
	for i, g := range gens {
		e := env
		e.Seed = env.Seed + int64(i)
		e.Key = sim.ArrivalKey(i)
		g.Install(nw, e)
	}
	nw.Eng.Run()
	for _, h := range nw.Hosts {
		for id, f := range h.Flows() {
			byID[id] = f
		}
	}
	if len(byID) != len(plan) {
		t.Fatalf("lazy install started %d flows, plan has %d", len(byID), len(plan))
	}
	for _, pf := range plan {
		f := byID[pf.ID]
		if f == nil {
			t.Fatalf("plan ID %d missing from lazy run", pf.ID)
		}
		src := nw.HostIndex(f.Host().ID())
		dst := nw.HostIndex(f.Dst())
		if src != pf.Src || dst != pf.Dst || f.Size() != pf.Size {
			t.Fatalf("ID %d: lazy (%d->%d, %d bytes) vs plan (%d->%d, %d bytes)",
				pf.ID, src, dst, f.Size(), pf.Src, pf.Dst, pf.Size)
		}
		wantStart := pf.At
		if wantStart < 0 {
			wantStart = 0 // inline arrivals start at install, time zero
		}
		if f.Started() != wantStart {
			t.Fatalf("ID %d started at %v, plan says %v", pf.ID, f.Started(), wantStart)
		}
	}

	// IDs must be dense 1..N — the counter sequence.
	for i := int32(1); i <= int32(len(plan)); i++ {
		if byID[i] == nil {
			t.Fatalf("flow ID %d not assigned (IDs not the counter sequence)", i)
		}
	}
}

// Closed-loop generators must refuse planning (the runner then falls
// back to a single engine).
func TestPlanRefusesClosedLoop(t *testing.T) {
	env := Env{HostRate: 100 * sim.Gbps, Until: sim.Millisecond, Seed: 1}
	if _, ok := PlanArrivals([]Generator{AllToAllSpec{Size: 1000}}, 4, env); ok {
		t.Fatal("planned a closed-loop AllToAll")
	}
	if _, ok := PlanArrivals([]Generator{RPCSpec{Size: 1000, Load: 0.1}}, 4, env); ok {
		t.Fatal("planned a closed-loop RPC")
	}
	if _, ok := PlanArrivals([]Generator{
		PoissonSpec{CDF: WebSearch(), Load: 0.3},
		AllToAllSpec{Size: 1000},
	}, 4, env); ok {
		t.Fatal("planned a mix containing a closed-loop generator")
	}
	// A per-spec OnDone cannot be replayed by the sharded install (it
	// installs its own completion callbacks): must refuse.
	withDone := PoissonSpec{CDF: WebSearch(), Load: 0.3, OnDone: func(*host.Flow) {}}
	if CanPlan(withDone) {
		t.Fatal("CanPlan accepted a spec with its own OnDone")
	}
	if _, ok := PlanArrivals([]Generator{withDone}, 4, env); ok {
		t.Fatal("planned a spec with its own OnDone")
	}
}
