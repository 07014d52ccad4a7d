package topology

import (
	"fmt"
	"maps"
	"slices"
	"testing"

	"hpcc/internal/fabric"
	"hpcc/internal/host"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// worldCheckpointables gathers every Checkpointable of a serial world,
// in the same order the sharded build registers them: engine and pool
// first, then each node followed by its ports.
func worldCheckpointables(eng *sim.Engine, pool *packet.Pool, nw *Network) []sim.Checkpointable {
	cs := []sim.Checkpointable{eng, pool}
	for _, h := range nw.Hosts {
		cs = append(cs, h)
		for _, pt := range h.Ports() {
			cs = append(cs, pt)
		}
	}
	for _, sw := range nw.Switches {
		cs = append(cs, sw)
		for _, pt := range sw.Ports() {
			cs = append(cs, pt)
		}
	}
	return cs
}

// probeWorld renders everything observable about a run — per-flow
// progress and counters, each host's live flow set and ended-flow
// totals, per-port serialization and pause totals, fabric drops, the
// clock — so two executions can be compared as one string.
func probeWorld(eng *sim.Engine, nw *Network, flows []*host.Flow) string {
	out := fmt.Sprintf("now=%v drops=%d\n", eng.Now(), nw.TotalDrops())
	for _, f := range fates(flows) {
		out += fmt.Sprintf("flow %d: acked=%d done=%v pkts=%d rtx=%d fin=%v\n",
			f.id, f.acked, f.done, f.pkts, f.rtx, f.finished)
	}
	for _, h := range nw.Hosts {
		ended, pkts := h.EndedFlows()
		out += fmt.Sprintf("host %d: live=%v ended=%d pkts=%d\n", h.ID(), slices.Sorted(maps.Keys(h.Flows())), ended, pkts)
		for _, pt := range h.Ports() {
			out += fmt.Sprintf("hport %d: sent=%d paused=%v\n",
				pt.WireKey(), pt.PacketsSent(), pt.PausedFor(fabric.PrioData))
		}
	}
	for _, sw := range nw.Switches {
		for _, pt := range sw.Ports() {
			out += fmt.Sprintf("sport %d: sent=%d paused=%v\n",
				pt.WireKey(), pt.PacketsSent(), pt.PausedFor(fabric.PrioData))
		}
	}
	return out
}

// The directed component round-trip: checkpoint a running serial world
// mid-stream (engine, pool, hosts with live CC/IRN state, switches,
// every port), run a window, roll everything back, and replay — twice,
// because a checkpoint must survive being restored from. This pins the
// per-component Checkpoint/Rollback contracts directly, without the
// speculation machinery on top.
func TestComponentCheckpointRoundTrip(t *testing.T) {
	hcfg, scfg := shardCfg()
	pool := packet.NewPool()
	hcfg.Pool = pool
	scfg.Pool = pool
	eng := sim.NewEngine()
	nw := Dumbbell(eng, 6, 100*sim.Gbps, 100*sim.Gbps, sim.Microsecond, hcfg, scfg)
	flows := dumbbellWorkload(nw)

	const (
		mark    = 100 * sim.Microsecond
		horizon = 400 * sim.Microsecond
	)
	eng.RunUntil(mark)
	cs := worldCheckpointables(eng, pool, nw)
	for _, c := range cs {
		c.Checkpoint()
	}
	at := probeWorld(eng, nw, flows)

	eng.RunUntil(horizon)
	ref := probeWorld(eng, nw, flows)
	if ref == at {
		t.Fatal("nothing happened inside the window — test is vacuous")
	}

	for round := 1; round <= 2; round++ {
		for _, c := range cs {
			c.Rollback()
		}
		if got := probeWorld(eng, nw, flows); got != at {
			t.Fatalf("round %d: rollback did not restore the checkpoint state:\n got %s\nwant %s", round, got, at)
		}
		eng.RunUntil(horizon)
		if got := probeWorld(eng, nw, flows); got != ref {
			t.Fatalf("round %d: replay diverged:\n got %s\nwant %s", round, got, ref)
		}
	}
}
