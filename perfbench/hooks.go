package main

import (
	"sync/atomic"
	"time"

	"hpcc/internal/cc"
	"hpcc/internal/fabric"
	"hpcc/internal/host"
	"hpcc/internal/sim"
	"hpcc/internal/topology"
)

// hooks observes one run from outside the program, through the two
// interfaces the runner accepts: the topology spec and the
// congestion-control factory. Untraced, the factory hook only stamps
// the first call and hands back the scheme's own instances, so the
// measured program is the one users run. Traced, every instance is
// wrapped to count and time its calls.
//
// Factory, Init, OnAck, OnCNP and cc timers run on shard goroutines
// in sharded runs, so everything they touch here is atomic.
type hooks struct {
	traced bool
	base   time.Time

	firstFlowNS atomic.Int64 // since base; 0 until the first Factory call
	instances   atomic.Int64
	onAckCalls  atomic.Int64
	onAckNS     atomic.Int64
	cnpCalls    atomic.Int64
	timerCalls  atomic.Int64
	timerNS     atomic.Int64

	// Engine queue depth, sampled on every pendingEvery-th OnAck. Only
	// sampled when the run has one engine (serial): an OnAck on one
	// shard cannot read another shard's engine without a data race.
	serial       bool
	sampleEng    *sim.Engine
	pendingSum   atomic.Int64
	pendingCount atomic.Int64

	// Written by Build, which runs on the caller's goroutine before
	// any engine starts, and read after the run returns.
	net     *topology.Network
	builds  []span
	buildNS int64
}

const pendingEvery = 64

func newHooks(traced, serial bool) *hooks {
	return &hooks{traced: traced, serial: serial, base: time.Now()}
}

func (h *hooks) since() int64 { return int64(time.Since(h.base)) }

// topo wraps a topology spec so its Build is timed and the engine and
// network it builds are kept for post-run readings.
func (h *hooks) topo(s topology.Spec) topology.Spec { return timedSpec{s, h} }

type timedSpec struct {
	topology.Spec
	h *hooks
}

func (s timedSpec) Build(eng *sim.Engine, hcfg host.Config, scfg fabric.SwitchConfig) *topology.Network {
	t0 := s.h.since()
	nw := s.Spec.Build(eng, hcfg, scfg)
	t1 := s.h.since()
	s.h.buildNS += t1 - t0
	s.h.builds = append(s.h.builds, span{Name: "topology.build", StartNS: t0, EndNS: t1})
	s.h.net = nw
	if s.h.traced && s.h.serial {
		s.h.sampleEng = eng
	}
	return nw
}

// factory wraps the scheme's factory. The first call marks the end of
// set-up: the runner asks for a cc instance when the first flow
// starts (or, on a speculative sharded run, when it probes the scheme
// just before starting the engines).
func (h *hooks) factory(inner cc.Factory) cc.Factory {
	return func() cc.Algorithm {
		if h.firstFlowNS.Load() == 0 {
			h.firstFlowNS.CompareAndSwap(0, h.since())
		}
		alg := inner()
		if !h.traced {
			return alg
		}
		h.instances.Add(1)
		p := &ccProbe{inner: alg, h: h}
		// The sharded runner speculates only when the scheme's
		// instances are sim.Checkpointable; the wrapper must not hide
		// that, or the traced run would measure a different program.
		if ck, ok := alg.(sim.Checkpointable); ok {
			return &ccProbeCk{ccProbe: p, ck: ck}
		}
		return p
	}
}

// ccProbe counts and times one flow's calls into its cc algorithm.
type ccProbe struct {
	inner cc.Algorithm
	h     *hooks
}

type ccProbeCk struct {
	*ccProbe
	ck sim.Checkpointable
}

func (a *ccProbeCk) Checkpoint() { a.ck.Checkpoint() }
func (a *ccProbeCk) Rollback()   { a.ck.Rollback() }

func (a *ccProbe) Name() string { return a.inner.Name() }

func (a *ccProbe) Init(env cc.Env) {
	schedule, h := env.Schedule, a.h
	env.Schedule = func(d sim.Time, fn func()) {
		schedule(d, func() {
			t0 := time.Now()
			fn()
			h.timerNS.Add(int64(time.Since(t0)))
			h.timerCalls.Add(1)
		})
	}
	a.inner.Init(env)
}

func (a *ccProbe) OnAck(ev *cc.AckEvent) {
	h := a.h
	t0 := time.Now()
	a.inner.OnAck(ev)
	h.onAckNS.Add(int64(time.Since(t0)))
	if n := h.onAckCalls.Add(1); h.sampleEng != nil && n%pendingEvery == 0 {
		h.pendingSum.Add(int64(h.sampleEng.Pending()))
		h.pendingCount.Add(1)
	}
}

func (a *ccProbe) OnCNP(now sim.Time) {
	a.h.cnpCalls.Add(1)
	a.inner.OnCNP(now)
}

func (a *ccProbe) WindowBytes() float64 { return a.inner.WindowBytes() }
func (a *ccProbe) RateBps() float64     { return a.inner.RateBps() }
