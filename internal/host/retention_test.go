package host

import (
	"maps"
	"runtime"
	"slices"
	"testing"
	"weak"

	"hpcc/internal/cc"
	"hpcc/internal/fabric"
	"hpcc/internal/sim"
)

// A host holds only its live flows: over 10k flows launched as four
// back-to-back chains, the flow map never holds more than the four
// concurrent flows, and the ended-flow totals equal what an onDone
// observer summed — the bounded-memory contract for long campaigns.
func TestLiveFlowMapBounded(t *testing.T) {
	nw := buildStar(2, hpccConfig(), fabric.SwitchConfig{PFCEnabled: true, INTEnabled: true}, line100, sim.Microsecond)
	h := nw.hosts[0]

	const chains, perChain = 4, 2_500
	maxLive, done := 0, 0
	var sentPkts uint64
	observe := func() {
		if n := len(h.Flows()); n > maxLive {
			maxLive = n
		}
		if len(h.liveList) != len(h.Flows()) {
			t.Fatalf("liveList holds %d flows, flow map %d", len(h.liveList), len(h.Flows()))
		}
	}
	var launch func(left int)
	launch = func(left int) {
		if left == 0 {
			return
		}
		nw.start(0, 1, 3_000, func(f *Flow) {
			done++
			sentPkts += f.PacketsSent()
			observe()
			launch(left - 1)
		})
		observe()
	}
	for c := 0; c < chains; c++ {
		launch(perChain)
	}
	nw.eng.Run()

	if done != chains*perChain {
		t.Fatalf("completed %d flows, want %d", done, chains*perChain)
	}
	if maxLive > chains {
		t.Fatalf("flow map grew to %d entries with %d concurrent flows", maxLive, chains)
	}
	if n := len(h.Flows()); n != 0 {
		t.Fatalf("%d flows left in the map after every flow completed", n)
	}
	if n, pkts := h.EndedFlows(); n != done || pkts != sentPkts {
		t.Fatalf("ended totals %d flows / %d pkts, observer saw %d / %d", n, pkts, done, sentPkts)
	}
}

// startReleasable starts flows that each end one way — completed,
// aborted while transmitting, and (under a scheduler limit) admitted
// from the waiting queue or aborted while waiting — and returns only
// weak references, so the caller holds nothing that keeps them alive.
func startReleasable(t *testing.T, nw *net, n int, abortWaiting bool) []weak.Pointer[Flow] {
	var ws []weak.Pointer[Flow]
	for i := 0; i < n; i++ {
		ws = append(ws, weak.Make(nw.start(0, 1, 20_000, nil)))
	}
	victim := nw.start(0, 1, 1_000_000, nil)
	nw.eng.At(5*sim.Microsecond, victim.Abort)
	ws = append(ws, weak.Make(victim))
	if abortWaiting {
		f := nw.start(0, 1, 20_000, nil)
		if !f.pending {
			t.Fatal("flow did not wait for a scheduler slot")
		}
		f.Abort()
		ws = append(ws, weak.Make(f))
	}
	return ws
}

// A torn-down flow — completed or aborted, with or without the
// flow-scheduler queue in between — is unreachable from the host, so
// the garbage collector reclaims it with its cc state.
func TestCompletedFlowsReleased(t *testing.T) {
	mock := func() cc.Algorithm { return &mockCC{w: 0, rate: float64(line100)} }
	cases := []struct {
		name  string
		cfg   Config
		flows int
		wait  bool
	}{
		{"plain", hpccConfig(), 20, false},
		// 60 flows on one 50-slot engine: ten of them (and the aborted
		// one) pass through the waiting queue.
		{"scheduler-engines", Config{CC: mock, BaseRTT: 10 * sim.Microsecond, SchedulerEngines: 1}, 60, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			nw := buildStar(2, tc.cfg, fabric.SwitchConfig{INTEnabled: tc.cfg.INT}, line100, sim.Microsecond)
			ws := startReleasable(t, nw, tc.flows, tc.wait)
			nw.eng.Run()
			h := nw.hosts[0]
			if n, _ := h.EndedFlows(); n != len(ws) || len(h.Flows()) != 0 {
				t.Fatalf("ended %d flows with %d live, want %d with 0", n, len(h.Flows()), len(ws))
			}
			runtime.GC()
			for i, w := range ws {
				if w.Value() != nil {
					t.Fatalf("flow %d of %d still reachable after teardown", i, len(ws))
				}
			}
			runtime.KeepAlive(nw)
		})
	}
}

// hostLiveState is the host's flow membership and accounting: the
// sorted flow-map keys, liveList in order, the ended totals and the
// packet-ID sequence.
type hostLiveState struct {
	mapIDs, listIDs []int32
	ended           int
	pkts            uint64
	pktSeq          uint64
}

func liveState(t *testing.T, h *Host) hostLiveState {
	t.Helper()
	s := hostLiveState{mapIDs: slices.Sorted(maps.Keys(h.flows)), pktSeq: h.pktSeq}
	for i, f := range h.liveList {
		if f.liveIdx != i || h.flows[f.ID] != f {
			t.Fatalf("liveList[%d] = flow %d (liveIdx %d) disagrees with the flow map", i, f.ID, f.liveIdx)
		}
		s.listIDs = append(s.listIDs, f.ID)
	}
	s.ended, s.pkts = h.EndedFlows()
	return s
}

func (a hostLiveState) equal(b hostLiveState) bool {
	return slices.Equal(a.mapIDs, b.mapIDs) && slices.Equal(a.listIDs, b.listIDs) &&
		a.ended == b.ended && a.pkts == b.pkts && a.pktSeq == b.pktSeq
}

// Rollback restores the live set: flows that completed or were aborted
// after the checkpoint are live again, flows started after it are gone,
// and the ended totals and packet-ID sequence are the checkpointed ones.
func TestCheckpointRollbackRestoresLiveSet(t *testing.T) {
	nw := buildStar(2, hpccConfig(), fabric.SwitchConfig{PFCEnabled: true, INTEnabled: true}, line100, sim.Microsecond)
	h := nw.hosts[0]
	// Sizes stagger the completions: at 100 Gbps a 10 KB flow takes
	// about a microsecond of serialization, a 1 MB flow about 80.
	var flows []*Flow
	for _, size := range []int64{2_000, 10_000, 200_000, 400_000, 600_000, 1_000_000} {
		flows = append(flows, nw.start(0, 1, size, nil))
	}
	nw.eng.At(3*sim.Microsecond, flows[5].Abort)
	nw.eng.RunUntil(10 * sim.Microsecond)

	h.Checkpoint()
	at := liveState(t, h)
	if at.ended == 0 || len(at.mapIDs) == 0 {
		t.Fatalf("checkpoint has %d ended and %d live flows; want some of each", at.ended, len(at.mapIDs))
	}

	// After the checkpoint: one live flow aborts, others complete, and
	// a new flow starts and runs.
	flows[4].Abort()
	late := nw.start(0, 1, 5_000, nil)
	nw.eng.RunUntil(100 * sim.Microsecond)
	moved := liveState(t, h)
	if !late.Done() || !flows[2].Done() || moved.ended < at.ended+3 {
		t.Fatalf("checkpoint %+v, then %+v: want the abort, the late flow and flow %d to end",
			at, moved, flows[2].ID)
	}

	h.Rollback()
	if got := liveState(t, h); !got.equal(at) {
		t.Fatalf("rollback restored %+v, checkpoint was %+v", got, at)
	}
	for _, id := range at.mapIDs {
		if f := h.flows[id]; f.Done() {
			t.Fatalf("flow %d live at the checkpoint is done after rollback", id)
		}
	}
}
