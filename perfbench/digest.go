package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"hpcc/internal/experiment"
	"hpcc/internal/stats"
)

// summary is the simulated outcome of one run: what a user of the
// paper's evaluation reads off it. Engine mechanics (event counts,
// epochs) are left out, because a perf change may move them while
// the simulation stays the same.
type summary struct {
	Flows        int       `json:"flows"`
	Censored     int       `json:"censored"`
	DataPackets  uint64    `json:"data_packets"`
	PortPackets  uint64    `json:"port_packets"`
	SlowdownP50  float64   `json:"slowdown_p50"`
	SlowdownP95  float64   `json:"slowdown_p95"`
	SlowdownP99  float64   `json:"slowdown_p99"`
	SlowdownP999 float64   `json:"slowdown_p999"`
	ShortP99     float64   `json:"short_slowdown_p99"`
	QueueP50     float64   `json:"queue_p50_bytes"`
	QueueP99     float64   `json:"queue_p99_bytes"`
	QueueMax     float64   `json:"queue_max_bytes"`
	PauseFrac    float64   `json:"pause_frac"`
	Drops        uint64    `json:"drops"`
	BucketP95    []float64 `json:"bucket_p95"`
}

func summarize(r *experiment.LoadResult) summary {
	s := summary{
		Flows:        r.FCT.Count(),
		Censored:     r.Censored,
		DataPackets:  r.DataPackets,
		PortPackets:  r.PortPackets,
		SlowdownP50:  r.FCT.SlowdownQuantile(50),
		SlowdownP95:  r.FCT.SlowdownQuantile(95),
		SlowdownP99:  r.FCT.SlowdownQuantile(99),
		SlowdownP999: r.FCT.SlowdownQuantile(99.9),
		ShortP99:     r.FCT.ShortSlowdownQuantile(99),
		QueueP50:     r.Queue.P50,
		QueueP99:     r.Queue.P99,
		QueueMax:     r.Queue.Max,
		PauseFrac:    r.PauseFrac,
		Drops:        r.Drops,
	}
	var edges []int64 // a streaming set buckets by its own edges
	if !r.FCT.Streaming() {
		edges = stats.WebSearchEdges()
	}
	for _, row := range r.FCT.Buckets(edges) {
		s.BucketP95 = append(s.BucketP95, row.Stats.P95)
	}
	return s
}

// digest is a SHA-256 over the summary with every float written in
// full precision, so two runs agree only if they simulated the same
// thing bit for bit.
func (s summary) digest() string {
	var b strings.Builder
	f := func(v float64) { b.WriteString(strconv.FormatFloat(v, 'g', -1, 64)); b.WriteByte(' ') }
	fmt.Fprintf(&b, "%d %d %d %d %d ", s.Flows, s.Censored, s.DataPackets, s.PortPackets, s.Drops)
	for _, v := range []float64{s.SlowdownP50, s.SlowdownP95, s.SlowdownP99, s.SlowdownP999,
		s.ShortP99, s.QueueP50, s.QueueP99, s.QueueMax, s.PauseFrac} {
		f(v)
	}
	for _, v := range s.BucketP95 {
		f(v)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// reference is the committed digest file: one entry per workload,
// recorded at defaultSeed by `run.sh --record`.
type reference struct {
	Seed    int64                `json:"seed"`
	Digests map[string]refDigest `json:"digests"`
}

type refDigest struct {
	SHA256  string  `json:"sha256"`
	Summary summary `json:"summary"`
}

const referenceFile = "perfbench/reference.json"

func loadReference() (reference, error) {
	var ref reference
	buf, err := os.ReadFile(referenceFile)
	if err != nil {
		return ref, err
	}
	if err := json.Unmarshal(buf, &ref); err != nil {
		return ref, fmt.Errorf("%s: %w", referenceFile, err)
	}
	return ref, nil
}
