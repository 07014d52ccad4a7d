package main

import (
	"encoding/json"
	"os"
	"slices"
	"testing"

	"hpcc/internal/experiment"
	"hpcc/internal/topology"
)

// smallFatTree is the paper workload shrunk to the 32-host FatTree, so
// a test can run it traced and untraced in well under a second each.
func smallFatTree(shards int) bench {
	return bench{name: "small-fattree", shards: shards, scenario: func(seed int64) experiment.LoadScenario {
		s := fatTreeWebSearch("hpcc", topology.ScaledFatTree(), 300, seed)
		s.Shards = shards
		return s
	}}
}

// The cc probe must not change the program: a traced sharded run
// executes on the same engines with the same synchronisation mode and
// simulates the same results as the untraced one, which equal the
// serial run's. Seed 7 is not the reference seed.
func TestTracedRunIsTheSameProgram(t *testing.T) {
	spec, err := defaultSpeculation()
	if err != nil {
		t.Fatal(err)
	}
	const seed = 7
	serial, _, err := runJob(smallFatTree(1), seed, false, spec)
	if err != nil {
		t.Fatal(err)
	}
	plain, _, err := runJob(smallFatTree(2), seed, false, spec)
	if err != nil {
		t.Fatal(err)
	}
	traced, _, err := runJob(smallFatTree(2), seed, true, spec)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Engines != 2 || traced.Engines != plain.Engines {
		t.Errorf("engines: untraced %d, traced %d; want 2", plain.Engines, traced.Engines)
	}
	if traced.Speculated != plain.Speculated || plain.Speculated != spec {
		t.Errorf("speculated: untraced %v, traced %v, public default %v", plain.Speculated, traced.Speculated, spec)
	}
	if plain.Digest != serial.Digest || traced.Digest != serial.Digest {
		t.Errorf("digests: serial %.12s, sharded %.12s, traced sharded %.12s", serial.Digest, plain.Digest, traced.Digest)
	}
	if traced.OnAckCalls == 0 || traced.CCInstances < int64(traced.Summary.Flows) {
		t.Errorf("probe saw %d OnAck calls over %d instances for %d flows", traced.OnAckCalls, traced.CCInstances, traced.Summary.Flows)
	}
}

// A profile the benchmark captured decodes without third-party code,
// and nearly every sample lands in a named layer.
func TestProfileAttribution(t *testing.T) {
	res, raw, err := runJob(smallFatTree(1), defaultSeed, true, false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := parseProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	layers := p.layerSamples()
	var total int64
	for _, n := range layers {
		total += n
	}
	if total < 20 {
		t.Fatalf("only %d CPU samples; the job is too short to attribute", total)
	}
	frac := float64(layers[unattributed]) / float64(total)
	t.Logf("%d samples by layer: %v; unattributed %.3f", total, layers, frac)
	if frac > 0.1 {
		t.Errorf("unattributed share %.3f > 0.1", frac)
	}
	for _, layer := range []string{"sim", "fabric", "host"} {
		if layers[layer] == 0 {
			t.Errorf("no samples attributed to %s", layer)
		}
	}
	if res.Layers[unattributed] != layers[unattributed] || res.Layers["sim"] != layers["sim"] {
		t.Errorf("job reported %v, decoding its profile gives %v", res.Layers, layers)
	}
}

// BENCHMARK.json declares exactly the workloads and metrics this
// program runs and prints.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &decl); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range decl.Workloads {
		names = append(names, w.Name)
	}
	var programNames []string
	for _, b := range benches {
		programNames = append(programNames, b.name)
	}
	if !slices.Equal(names, programNames) {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", names, programNames)
	}
	match := func(kind string, declared []struct{ Name, Unit string }, printed map[string]metric) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(printed))
		}
		for _, d := range declared {
			if m, ok := printed[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("%s: %s [%s] declared, program prints %+v (present %v)", kind, d.Name, d.Unit, m, ok)
			}
		}
	}
	match("end_to_end", decl.EndToEnd, endToEnd(nil))
	match("per_layer", decl.PerLayer, layerMetrics(nil))
}
