package main

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"hpcc/internal/experiment"
	"hpcc/internal/sim"
)

// span is one coarse boundary of a traced job, in nanoseconds since the
// job's hooks were created. Spans of one job share its Job number.
type span struct {
	Job     int    `json:"job"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"` // 0: no parent
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

// jobResult is what one child process reports about its run.
type jobResult struct {
	Traced bool    `json:"traced"`
	WallS  float64 `json:"wall_s"`
	SetupS float64 `json:"setup_s"`
	CPUS   float64 `json:"cpu_s"`
	// PeakRSSMB is filled in by the parent from the child's rusage.
	PeakRSSMB float64 `json:"peak_rss_mb"`

	Summary summary `json:"summary"`
	Digest  string  `json:"digest"`

	Engines       int     `json:"engines"`
	Speculated    bool    `json:"speculated"`
	Epochs        uint64  `json:"epochs"`
	SpecCommits   uint64  `json:"spec_commits"`
	SpecRollbacks uint64  `json:"spec_rollbacks"`
	SyncFrac      float64 `json:"sync_frac"`

	Events        uint64  `json:"events"`
	PendingMean   float64 `json:"pending_mean"`
	ECNMarked     uint64  `json:"ecn_marked"`
	MaxBufferKB   float64 `json:"max_buffer_kb"`
	RetainedBytes int64   `json:"retained_bytes"`
	BuildMS       float64 `json:"build_ms"`
	SummarizeMS   float64 `json:"summarize_ms"`

	Allocs     uint64  `json:"allocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCycles   uint64  `json:"gc_cycles"`
	GCCPUFrac  float64 `json:"gc_cpu_frac"`

	CCInstances int64 `json:"cc_instances"`
	OnAckCalls  int64 `json:"onack_calls"`
	OnAckNS     int64 `json:"onack_ns"`
	CNPCalls    int64 `json:"cnp_calls"`
	TimerCalls  int64 `json:"timer_calls"`
	TimerNS     int64 `json:"timer_ns"`

	// Layers counts CPU-profile samples by layer (traced jobs only).
	Layers map[string]int64 `json:"layers,omitempty"`
	Spans  []span           `json:"spans,omitempty"`

	Err string `json:"error,omitempty"`
}

var runtimeSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
	{Name: "/cpu/classes/idle:cpu-seconds"},
}

func readRuntime() []metrics.Sample {
	s := append([]metrics.Sample(nil), runtimeSamples...)
	metrics.Read(s)
	return s
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// runJob executes one batch job of workload b in this process. A
// traced job wraps every cc instance and takes a CPU profile, whose
// raw bytes it also returns.
func runJob(b bench, seed int64, traced, speculate bool) (res jobResult, profile []byte, err error) {
	res.Traced = traced
	h := newHooks(traced, b.shards == 1)
	s := b.scenario(seed)
	s.Topo = h.topo(s.Topo)
	s.Scheme.Factory = h.factory(s.Scheme.Factory)
	if b.shards > 1 {
		setField(&s, "Speculate", speculate)
	}

	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return res, nil, err
		}
	}
	rt0 := readRuntime()
	cpu0 := cpuSeconds()
	meter := sim.AttachMeter()
	t0 := h.since()
	r, err := func() (r *experiment.LoadResult, err error) {
		defer func() {
			if p := recover(); p != nil {
				err = fmt.Errorf("runner panicked: %v", p)
			}
		}()
		return experiment.RunLoad(s)
	}()
	t1 := h.since()
	meter.Detach()
	cpu1 := cpuSeconds()
	rt1 := readRuntime()
	if err != nil {
		if traced {
			pprof.StopCPUProfile()
		}
		return res, nil, err
	}
	res.Summary = summarize(r)
	t2 := h.since()
	if traced {
		pprof.StopCPUProfile()
	}
	res.Digest = res.Summary.digest()

	first := h.firstFlowNS.Load()
	if first == 0 {
		return res, nil, fmt.Errorf("no flow started")
	}
	res.WallS = float64(t1-t0) / 1e9
	res.SetupS = float64(first-t0) / 1e9
	res.CPUS = cpu1 - cpu0

	res.Engines = r.Shards
	res.Epochs = r.Sync.Epochs
	res.SyncFrac = r.Sync.SyncOverhead()
	// Read by name, so that flipping or deleting speculation needs no
	// benchmark change.
	rv := reflect.ValueOf(r).Elem()
	res.Speculated = getBool(rv, "Speculated")
	res.SpecCommits = getUint(rv.FieldByName("Sync"), "SpecCommits")
	res.SpecRollbacks = getUint(rv.FieldByName("Sync"), "SpecRollbacks")

	res.Events = meter.Events()
	res.RetainedBytes = r.RetainedStatBytes
	res.BuildMS = float64(h.buildNS) / 1e6
	res.SummarizeMS = float64(t2-t1) / 1e6
	var maxBuf int64
	for _, sw := range h.net.Switches {
		res.ECNMarked += sw.ECNMarked()
		maxBuf = max(maxBuf, sw.MaxBufferUsed())
	}
	res.MaxBufferKB = float64(maxBuf) / 1024
	if n := h.pendingCount.Load(); n > 0 {
		res.PendingMean = float64(h.pendingSum.Load()) / float64(n)
	}

	res.Allocs = rt1[0].Value.Uint64() - rt0[0].Value.Uint64()
	res.AllocBytes = rt1[1].Value.Uint64() - rt0[1].Value.Uint64()
	res.GCCycles = rt1[2].Value.Uint64() - rt0[2].Value.Uint64()
	gc := rt1[3].Value.Float64() - rt0[3].Value.Float64()
	busy := (rt1[4].Value.Float64() - rt0[4].Value.Float64()) - (rt1[5].Value.Float64() - rt0[5].Value.Float64())
	if busy > 0 {
		res.GCCPUFrac = gc / busy
	}

	res.CCInstances = h.instances.Load()
	res.OnAckCalls = h.onAckCalls.Load()
	res.OnAckNS = h.onAckNS.Load()
	res.CNPCalls = h.cnpCalls.Load()
	res.TimerCalls = h.timerCalls.Load()
	res.TimerNS = h.timerNS.Load()

	if traced {
		p, err := parseProfile(prof.Bytes())
		if err != nil {
			return res, nil, fmt.Errorf("cpu profile: %w", err)
		}
		res.Layers = p.layerSamples()
		res.Spans = []span{
			{ID: 1, Name: "run", StartNS: t0, EndNS: t2},
			{ID: 2, Parent: 1, Name: "setup", StartNS: t0, EndNS: first},
			{ID: 3, Parent: 1, Name: "engine.run", StartNS: first, EndNS: t1},
			{ID: 4, Parent: 1, Name: "result.summary", StartNS: t1, EndNS: t2},
		}
		for i, bs := range h.builds {
			bs.ID, bs.Parent = 5+i, 2
			res.Spans = append(res.Spans, bs)
		}
	}
	return res, prof.Bytes(), nil
}

// setField sets a field of the runner's scenario by name when the
// runner still has it.
func setField(s *experiment.LoadScenario, name string, v bool) {
	if f := reflect.ValueOf(s).Elem().FieldByName(name); f.IsValid() && f.Kind() == reflect.Bool {
		f.SetBool(v)
	}
}

func getBool(v reflect.Value, name string) bool {
	f := v.FieldByName(name)
	return f.IsValid() && f.Kind() == reflect.Bool && f.Bool()
}

func getUint(v reflect.Value, name string) uint64 {
	if !v.IsValid() {
		return 0
	}
	if f := v.FieldByName(name); f.IsValid() && f.CanUint() {
		return f.Uint()
	}
	return 0
}
