package host

import (
	"testing"

	"hpcc/internal/cc"
	"hpcc/internal/fabric"
	"hpcc/internal/sim"
)

func TestRDMARead(t *testing.T) {
	nw := buildStar(2, hpccConfig(), fabric.SwitchConfig{INTEnabled: true}, line100, sim.Microsecond)
	done := false
	// Host 0 reads 500 KB from host 1: the data flows 1 -> 0.
	nw.hosts[0].Read(1, nw.hosts[1].ID(), 500_000, 0, func() { done = true })
	// The responder owns the data flow; it is in the responder's live
	// map only while it streams (40 us at line rate), so grab it there.
	var f *Flow
	nw.eng.At(10*sim.Microsecond, func() { f = nw.hosts[1].Flows()[1] })
	nw.eng.Run()
	if !done {
		t.Fatal("READ completion never fired at the requester")
	}
	if f == nil || !f.Done() {
		t.Fatal("responder flow missing or unfinished")
	}
	if got := f.Acked(); got != 500_000 {
		t.Fatalf("responder streamed %d acked bytes, want 500000", got)
	}
	// Completed, it is released into the responder's totals.
	if n, pkts := nw.hosts[1].EndedFlows(); n != 1 || pkts != f.PacketsSent() || len(nw.hosts[1].Flows()) != 0 {
		t.Fatalf("responder totals %d flows / %d pkts with %d live, want 1 / %d with 0",
			n, pkts, len(nw.hosts[1].Flows()), f.PacketsSent())
	}
	// The requester's reassembly state is freed once the stream lands.
	if nw.hosts[0].recv[1] != nil {
		t.Fatal("requester receiver state not freed after READ completion")
	}
}

func TestRDMAReadUnderIRN(t *testing.T) {
	cfg := hpccConfig()
	cfg.FlowCtl = IRN
	nw := buildStar(2, cfg, fabric.SwitchConfig{INTEnabled: true}, line100, sim.Microsecond)
	done := false
	nw.hosts[0].Read(7, nw.hosts[1].ID(), 123_456, 0, func() { done = true })
	nw.eng.Run()
	if !done {
		t.Fatal("READ completion never fired under IRN")
	}
}

func TestSchedulerEngineLimit(t *testing.T) {
	// One engine = 50 flows; launch 60 and check the last ten wait
	// until earlier flows finish, yet all eventually complete.
	mock := func() cc.Algorithm { return &mockCC{w: 0, rate: float64(line100)} }
	cfg := Config{CC: mock, BaseRTT: 10 * sim.Microsecond, SchedulerEngines: 1}
	nw := buildStar(2, cfg, fabric.SwitchConfig{}, line100, sim.Microsecond)
	var flows []*Flow
	for i := 0; i < 60; i++ {
		flows = append(flows, nw.start(0, 1, 50_000, nil))
	}
	waiting := 0
	for _, f := range flows {
		if f.pending {
			waiting++
		}
	}
	if waiting != 10 {
		t.Fatalf("waiting flows = %d, want 10 (capacity 50)", waiting)
	}
	nw.eng.Run()
	for i, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d never completed", i)
		}
	}
	if nw.hosts[0].activeFlows != 0 {
		t.Fatalf("scheduler slots leaked: %d active after drain", nw.hosts[0].activeFlows)
	}
}

func TestSchedulerAbortWhileWaiting(t *testing.T) {
	mock := func() cc.Algorithm { return &mockCC{w: 0, rate: float64(line100)} }
	cfg := Config{CC: mock, BaseRTT: 10 * sim.Microsecond, SchedulerEngines: 1}
	nw := buildStar(2, cfg, fabric.SwitchConfig{}, line100, sim.Microsecond)
	var flows []*Flow
	for i := 0; i < 55; i++ {
		flows = append(flows, nw.start(0, 1, 50_000, nil))
	}
	// Abort a waiting flow before it is admitted.
	flows[52].Abort()
	nw.eng.Run()
	for i, f := range flows {
		if i == 52 {
			continue
		}
		if !f.Done() {
			t.Fatalf("flow %d never completed", i)
		}
	}
	if nw.hosts[0].activeFlows != 0 {
		t.Fatalf("scheduler slots leaked after abort: %d", nw.hosts[0].activeFlows)
	}
}

func TestUnlimitedSchedulerByDefault(t *testing.T) {
	nw := buildStar(2, hpccConfig(), fabric.SwitchConfig{INTEnabled: true}, line100, sim.Microsecond)
	var flows []*Flow
	for i := 0; i < 400; i++ {
		flows = append(flows, nw.start(0, 1, 2_000, nil))
	}
	if p := flows[len(flows)-1]; p.pending {
		t.Fatal("flow queued for a scheduler slot with unlimited scheduler")
	}
	nw.eng.Run()
	for _, f := range flows {
		if !f.Done() {
			t.Fatalf("flow %d unfinished with unlimited scheduler", f.ID)
		}
	}
}
