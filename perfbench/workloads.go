package main

import (
	"fmt"
	"math/rand"

	"hpcc/internal/experiment"
	"hpcc/internal/sim"
	"hpcc/internal/topology"
	"hpcc/internal/workload"
)

// defaultSeed is the seed the committed reference digests were
// recorded at.
const defaultSeed = 1

// bench is one named workload: a batch job for the runner plus the
// engine count it declares. Traffic is open-loop Poisson in virtual
// time; the seed reaches the program only through the scenario built
// from it.
type bench struct {
	name string
	// shards is the engine count the run must execute on.
	shards int
	// sameAs names the workload whose simulated results this one must
	// reproduce exactly ("" for itself).
	sameAs   string
	scenario func(seed int64) experiment.LoadScenario
}

var benches = []bench{
	{name: "paper-fattree-websearch", shards: 1, scenario: func(seed int64) experiment.LoadScenario {
		return paperFatTree("hpcc", seed)
	}},
	{name: "paper-fattree-sharded", shards: 2, sameAs: "paper-fattree-websearch", scenario: func(seed int64) experiment.LoadScenario {
		s := paperFatTree("hpcc", seed)
		s.Shards = 2
		return s
	}},
	{name: "paper-fattree-dcqcn", shards: 1, scenario: func(seed int64) experiment.LoadScenario {
		return paperFatTree("dcqcn", seed)
	}},
	{name: "stream-flows", shards: 1, scenario: streamFlows},
}

func benchByName(name string) (bench, error) {
	for _, b := range benches {
		if b.name == name {
			return b, nil
		}
	}
	return bench{}, fmt.Errorf("unknown workload %q", name)
}

// paperFatTree is the §5.3 evaluation: WebSearch traffic at 50% load
// on the 320-host FatTree with PFC and the paper's 32 MB buffer,
// 1,200 flows.
func paperFatTree(scheme string, seed int64) experiment.LoadScenario {
	return fatTreeWebSearch(scheme, topology.PaperFatTree(), 1200, seed)
}

func fatTreeWebSearch(scheme string, topo topology.FatTreeSpec, flows int, seed int64) experiment.LoadScenario {
	return experiment.LoadScenario{
		Scheme:      experiment.ByNameMust(scheme),
		Topo:        topo,
		Traffic:     []workload.Generator{webSearchArrivals(topo.NumHosts(), flows, 0.5, topo.HostRate, seed)},
		Until:       8 * sim.Millisecond,
		Drain:       20 * sim.Millisecond,
		PFC:         true,
		Seed:        seed,
		BufferBytes: experiment.BufferFor(topo.NumHosts()),
	}
}

// webSearchArrivals generates the FatTree workloads' traffic from the
// seed: Poisson arrivals at the given load between uniformly random
// host pairs, with sizes from the WebSearch CDF. Sizes are drawn by
// stratified sampling, one from each of n equal-probability strata in
// random order, so the offered bytes barely move with the seed (a
// plain draw of 1,200 heavy-tailed sizes moves them by about 10%) and
// the spread between runs at different seeds is the simulator's, not
// the draw's.
func webSearchArrivals(hosts, n int, load float64, rate sim.Rate, seed int64) workload.ArrivalFunc {
	cdf := workload.WebSearch()
	rng := rand.New(rand.NewSource(seed))
	sizes := make([]int64, n)
	for i := range sizes {
		sizes[i] = max(1, cdf.Quantile((float64(i)+rng.Float64())/float64(n)))
	}
	rng.Shuffle(n, func(i, j int) { sizes[i], sizes[j] = sizes[j], sizes[i] })
	meanGap := float64(sim.Second) * cdf.Mean() / (load * float64(hosts) * rate.BytesPerSec())
	flows := make([]workload.FlowSpec, n)
	t := 0.0
	for i := range flows {
		t += rng.ExpFloat64() * meanGap
		src, dst := rng.Intn(hosts), rng.Intn(hosts-1)
		if dst >= src {
			dst++
		}
		flows[i] = workload.FlowSpec{At: sim.Time(t), Src: src, Dst: dst, Size: sizes[i]}
	}
	return func(i int) (workload.FlowSpec, bool) {
		if i < len(flows) {
			return flows[i], true
		}
		return workload.FlowSpec{}, false
	}
}

// streamFlows is hpccbench's stream-flows-1000k: a million 1 KB
// single-packet Poisson flows on a 4-host star with streaming
// statistics, so per-flow setup, arrivals, sketches and the Go runtime
// carry the cost rather than the fabric.
func streamFlows(seed int64) experiment.LoadScenario {
	fixed1KB := workload.MustCDF("fixed-1KB", []workload.Point{{Bytes: 1000, Prob: 0}, {Bytes: 1000, Prob: 1}})
	return experiment.LoadScenario{
		Scheme:      experiment.ByNameMust("hpcc"),
		Topo:        experiment.StarTopo(4),
		Traffic:     []workload.Generator{workload.PoissonSpec{CDF: fixed1KB, Load: 0.5}},
		MaxFlows:    1_000_000,
		Until:       sim.Second,
		Drain:       20 * sim.Millisecond,
		PFC:         true,
		Seed:        seed,
		SketchStats: true,
	}
}
