// Command perfbench is the repository's benchmark: it runs the paper's
// §5.3 evaluation workloads as batch jobs, one child process per job,
// and reports host time and memory per job end to end, or, traced,
// where the time went layer by layer. See README.md.
//
//	bash perfbench/run.sh --workload paper-fattree-websearch --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it carries
// the run's fingerprint and every job's readings.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"hpcc"
)

const (
	outDir = ".bench_build"
	// runLimit bounds one invocation; jobs still running then are
	// killed and count as failed.
	runLimit = 170 * time.Second
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "workload name")
		seed     = flag.Int64("seed", defaultSeed, "traffic seed")
		seconds  = flag.Int("seconds", 30, "measurement time in seconds")
		trace    = flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
		child    = flag.Bool("child", false, "run one job in this process and print its jobResult")
		spec     = flag.Bool("speculate", false, "with -child: the runner's Speculate setting for sharded workloads")
		record   = flag.Bool("record", false, "record the reference digests at the default seed")
	)
	flag.Parse()
	if *record {
		return recordReference()
	}
	b, err := benchByName(*workload)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	if *child {
		return childMain(b, *seed, *trace == 1, *spec)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	if err := measure(b, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func childMain(b bench, seed int64, traced, speculate bool) int {
	res, prof, err := runJob(b, seed, traced, speculate)
	if err != nil {
		res.Err = err.Error()
	}
	if len(prof) > 0 {
		path := filepath.Join(outDir, "profiles", fmt.Sprintf("%s-seed%d.pprof", b.name, seed))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
			_ = os.WriteFile(path, prof, 0o644) // a convenience copy for go tool pprof
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(&res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

// fingerprint identifies the machine and settings a result came from.
type fingerprint struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	NProc    int    `json:"nproc"`
	// GOMAXPROCS of every job is the workload's engine count (capped
	// by nproc). A one-engine run is a single-threaded program: given a
	// second P, the Go GC's idle mark workers take whatever the idle
	// core offers, so its CPU time and, on the GC-heavy stream-flows,
	// its wall time follow the neighbours' load instead of the program.
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	GOGC       string `json:"gogc"`
	GOMEMLIMIT string `json:"gomemlimit"`
	// Speculate is the synchronisation mode the public API picks by
	// default, which the sharded workload runs with.
	Speculate bool `json:"speculate_default"`
}

func cpuModel() string {
	buf, _ := os.ReadFile("/proc/cpuinfo") // best effort: absent off Linux
	for _, line := range strings.Split(string(buf), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// defaultSpeculation asks the public API which shard synchronisation it
// uses by default, with a tiny sharded run, so the sharded workload
// follows the default instead of forcing a mode.
func defaultSpeculation() (bool, error) {
	res, err := hpcc.Experiment{
		Topology: hpcc.ScaledFatTree(),
		Traffic:  []hpcc.Traffic{hpcc.Poisson{CDF: hpcc.WebSearchCDF(), Load: 0.5}},
		MaxFlows: 20,
		Horizon:  100 * time.Microsecond,
		Drain:    time.Millisecond,
		Shards:   2,
	}.Run()
	if err != nil {
		return false, fmt.Errorf("speculation probe: %w", err)
	}
	if res.ShardsUsed != 2 {
		return false, fmt.Errorf("speculation probe ran on %d engines, want 2", res.ShardsUsed)
	}
	return getBool(reflect.ValueOf(res).Elem(), "Speculated"), nil
}

// runner starts jobs as child processes of this executable.
type runner struct {
	exe       string
	ctx       context.Context
	b         bench
	seed      int64
	speculate bool
	procs     int
}

func (r *runner) job(b bench, traced bool) (jobResult, error) {
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(r.ctx, r.exe, "-child", "-workload", b.name,
		"-seed", strconv.FormatInt(r.seed, 10), "-trace", tr,
		"-speculate="+strconv.FormatBool(r.speculate))
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(r.procs))
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	var res jobResult
	if err != nil {
		return res, fmt.Errorf("job process: %w", err)
	}
	if err := json.Unmarshal(out, &res); err != nil {
		return res, fmt.Errorf("job output: %w", err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		res.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if res.Err != "" {
		return res, errors.New(res.Err)
	}
	return res, nil
}

// check reports why a job's outcome is wrong, or "".
func (r *runner) check(res jobResult, want string) string {
	switch {
	case res.Engines != r.b.shards:
		return fmt.Sprintf("ran on %d engines, declared %d", res.Engines, r.b.shards)
	case res.Digest != want:
		return fmt.Sprintf("simulated-result digest %.12s, want %.12s", res.Digest, want)
	}
	return ""
}

type jobLine struct {
	jobResult
	Failure string `json:"failure,omitempty"`
}

func measure(b bench, seed int64, budget time.Duration, traced bool) error {
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	fp := fingerprint{
		Workload: b.name, Seed: seed, Trace: traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: min(b.shards, runtime.NumCPU()),
		CPUModel: cpuModel(), GoVersion: runtime.Version(),
		GOGC: os.Getenv("GOGC"), GOMEMLIMIT: os.Getenv("GOMEMLIMIT"),
	}
	if fp.Speculate, err = defaultSpeculation(); err != nil {
		return err
	}
	r := &runner{exe: exe, ctx: ctx, b: b, seed: seed, speculate: fp.Speculate, procs: fp.GOMAXPROCS}

	// The digest every job must reproduce: the committed one at the
	// default seed; at another seed, a serial run of the workload this
	// one must equal, or else the first job (all jobs, traced and
	// untraced, must then agree).
	refName := b.name
	if b.sameAs != "" {
		refName = b.sameAs
	}
	want := ""
	if seed == ref.Seed {
		d, ok := ref.Digests[refName]
		if !ok {
			return fmt.Errorf("%s has no digest for %s", referenceFile, refName)
		}
		want = d.SHA256
	} else if b.sameAs != "" {
		sb, err := benchByName(b.sameAs)
		if err != nil {
			return err
		}
		res, err := r.job(sb, false)
		if err != nil {
			return fmt.Errorf("reference run of %s: %w", sb.name, err)
		}
		want = res.Digest
	}

	var jobs []jobLine
	attempted, failed := 0, 0
	do := func(tr bool) {
		attempted++
		res, err := r.job(b, tr)
		line := jobLine{jobResult: res}
		if err != nil {
			line.Failure = err.Error()
		} else {
			if want == "" {
				want = res.Digest
			}
			line.Failure = r.check(res, want)
		}
		if line.Failure != "" {
			failed++
		}
		jobs = append(jobs, line)
	}
	t0 := time.Now()
	for rounds := 1; ; rounds++ {
		do(false)
		if traced {
			do(true)
		}
		// Start another round only if it should end within the budget.
		elapsed := time.Since(t0)
		if elapsed+elapsed/time.Duration(rounds) > budget || ctx.Err() != nil {
			break
		}
	}

	var ok []jobResult
	for _, j := range jobs {
		if j.Failure == "" {
			ok = append(ok, j.jobResult)
		}
	}
	var metrics map[string]metric
	if traced {
		metrics = layerMetrics(ok)
		if err := writeSpans(b.name, seed, jobs); err != nil {
			return err
		}
	} else {
		metrics = endToEnd(ok)
	}
	detail, err := json.Marshal(map[string]any{"fingerprint": fp, "jobs": jobs, "elapsed_s": time.Since(start).Seconds()})
	if err != nil {
		return err
	}
	fmt.Println(string(detail))
	final, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(final))
	return nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// medianOf is the median of f over jobs.
func medianOf(jobs []jobResult, f func(jobResult) float64) float64 {
	xs := make([]float64, len(jobs))
	for i, j := range jobs {
		xs[i] = f(j)
	}
	return median(xs)
}

func endToEnd(jobs []jobResult) map[string]metric {
	return map[string]metric{
		"pkts_per_s": {medianOf(jobs, func(j jobResult) float64 {
			return float64(j.Summary.DataPackets) / (j.WallS - j.SetupS)
		}), "1/s"},
		"wall_s":      {medianOf(jobs, func(j jobResult) float64 { return j.WallS }), "s"},
		"setup_s":     {medianOf(jobs, func(j jobResult) float64 { return j.SetupS }), "s"},
		"cpu_s":       {medianOf(jobs, func(j jobResult) float64 { return j.CPUS }), "s"},
		"peak_rss_mb": {medianOf(jobs, func(j jobResult) float64 { return j.PeakRSSMB }), "MB"},
	}
}

// layerMetrics reports the per-layer readings of a traced run. Counts
// and times come from the traced jobs, except allocation and GC counts,
// which come from the untraced jobs because the cc probes allocate.
// CPU shares pool the samples of every traced job.
func layerMetrics(jobs []jobResult) map[string]metric {
	var tr, un []jobResult
	samples := map[string]int64{}
	var total int64
	for _, j := range jobs {
		if !j.Traced {
			un = append(un, j)
			continue
		}
		tr = append(tr, j)
		for layer, n := range j.Layers {
			samples[layer] += n
			total += n
		}
	}
	m := map[string]metric{}
	count := func(name string, f func(jobResult) float64) {
		m[name] = metric{medianOf(tr, f), "count"}
	}
	frac := func(name string, v float64) { m[name] = metric{v, "ratio"} }
	share := func(layer string) float64 {
		if total == 0 {
			return 0
		}
		return float64(samples[layer]) / float64(total)
	}

	count("sim.events", func(j jobResult) float64 { return float64(j.Events) })
	frac("sim.events_per_port_pkt", medianOf(tr, func(j jobResult) float64 {
		return float64(j.Events) / float64(j.Summary.PortPackets)
	}))
	count("sim.pending_mean", func(j jobResult) float64 { return j.PendingMean })
	count("shard.engines", func(j jobResult) float64 { return float64(j.Engines) })
	count("shard.epochs", func(j jobResult) float64 { return float64(j.Epochs) })
	count("shard.spec_commits", func(j jobResult) float64 { return float64(j.SpecCommits) })
	count("shard.spec_rollbacks", func(j jobResult) float64 { return float64(j.SpecRollbacks) })
	frac("shard.sync_frac", medianOf(tr, func(j jobResult) float64 { return j.SyncFrac }))
	count("fabric.port_pkts", func(j jobResult) float64 { return float64(j.Summary.PortPackets) })
	frac("fabric.pfc_pause_frac", medianOf(tr, func(j jobResult) float64 { return j.Summary.PauseFrac }))
	count("fabric.ecn_marked", func(j jobResult) float64 { return float64(j.ECNMarked) })
	count("fabric.drops", func(j jobResult) float64 { return float64(j.Summary.Drops) })
	m["fabric.max_buffer_kb"] = metric{medianOf(tr, func(j jobResult) float64 { return j.MaxBufferKB }), "KB"}
	count("host.data_pkts", func(j jobResult) float64 { return float64(j.Summary.DataPackets) })
	count("host.flows", func(j jobResult) float64 { return float64(j.Summary.Flows) })
	count("host.flows_censored", func(j jobResult) float64 { return float64(j.Summary.Censored) })
	count("cc.instances", func(j jobResult) float64 { return float64(j.CCInstances) })
	count("cc.onack_calls", func(j jobResult) float64 { return float64(j.OnAckCalls) })
	m["cc.onack_ns"] = metric{medianOf(tr, func(j jobResult) float64 { return float64(j.OnAckNS) }), "ns"}
	count("cc.cnp_calls", func(j jobResult) float64 { return float64(j.CNPCalls) })
	count("cc.timer_calls", func(j jobResult) float64 { return float64(j.TimerCalls) })
	m["cc.timer_ns"] = metric{medianOf(tr, func(j jobResult) float64 { return float64(j.TimerNS) }), "ns"}
	m["stats.retained_bytes"] = metric{medianOf(tr, func(j jobResult) float64 { return float64(j.RetainedBytes) }), "B"}
	m["stats.summarize_ms"] = metric{medianOf(tr, func(j jobResult) float64 { return j.SummarizeMS }), "ms"}
	m["topology.build_ms"] = metric{medianOf(tr, func(j jobResult) float64 { return j.BuildMS }), "ms"}

	perPkt := func(f func(jobResult) uint64) float64 {
		return medianOf(un, func(j jobResult) float64 { return float64(f(j)) / float64(j.Summary.DataPackets) })
	}
	m["runtime.allocs_per_pkt"] = metric{perPkt(func(j jobResult) uint64 { return j.Allocs }), "count"}
	m["runtime.bytes_per_pkt"] = metric{perPkt(func(j jobResult) uint64 { return j.AllocBytes }), "B"}
	m["runtime.gc_cycles"] = metric{medianOf(un, func(j jobResult) float64 { return float64(j.GCCycles) }), "count"}
	gc := medianOf(tr, func(j jobResult) float64 { return j.GCCPUFrac })
	frac("runtime.gc_cpu_frac", gc)
	frac("runtime.other_cpu_frac", max(0, share("runtime")-gc))

	for _, layer := range []string{"sim", "shard", "fabric", "host", "cc", "packet", "workload", "stats", "topology", "experiment", "bench"} {
		frac(layer+".cpu_frac", share(layer))
	}
	frac("trace.unattributed_frac", share(unattributed))
	m["trace.cpu_samples"] = metric{float64(total), "count"}
	wall := func(js []jobResult) float64 { return medianOf(js, func(j jobResult) float64 { return j.WallS }) }
	overhead := 0.0
	if u := wall(un); u > 0 {
		overhead = wall(tr)/u - 1
	}
	frac("trace.overhead", overhead)
	return m
}

// writeSpans writes every traced job's spans, numbered by job, once the
// run is over.
func writeSpans(name string, seed int64, jobs []jobLine) error {
	var all []span
	for i, j := range jobs {
		for _, s := range j.Spans {
			s.Job = i + 1
			all = append(all, s)
		}
	}
	buf, err := json.Marshal(all)
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "spans", fmt.Sprintf("%s-seed%d.json", name, seed))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// recordReference runs every workload once at the default seed and
// writes the reference digests, checking that workloads declared equal
// agree.
func recordReference() int {
	ref := reference{Seed: defaultSeed, Digests: map[string]refDigest{}}
	spec, err := defaultSpeculation()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for _, b := range benches {
		res, _, err := runJob(b, defaultSeed, false, spec)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.name, err)
			return 1
		}
		if b.sameAs != "" {
			if d := ref.Digests[b.sameAs]; d.SHA256 != res.Digest {
				fmt.Fprintf(os.Stderr, "perfbench: %s digest %s differs from %s's %s\n", b.name, res.Digest, b.sameAs, d.SHA256)
				return 1
			}
			continue
		}
		ref.Digests[b.name] = refDigest{SHA256: res.Digest, Summary: res.Summary}
		fmt.Fprintf(os.Stderr, "%s: %s\n", b.name, res.Digest)
	}
	buf, err := json.MarshalIndent(ref, "", "  ")
	if err == nil {
		err = os.WriteFile(referenceFile, append(buf, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}
