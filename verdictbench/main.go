// Command verdictbench is the repository's benchmark of the verdict paths:
// one-shot cold verdicts (dctl verdict), a served request mix (dcserved)
// and edit sessions (dctl watch, POST /v1/revise).
//
//	verdictbench --workload cold-verdict|served-mix|edit-session \
//	    --seed N --seconds S --trace 0|1
//
// With --trace 0 it measures the end-to-end metrics untraced; with
// --trace 1 it replays the workload as spans around its own calls into the
// program's layers and reports per-layer metrics. Either way the last line
// of standard output is one JSON object: correct, attempted, failed and
// metrics. Every verdict is checked against the ground-truth table in
// truth.json; see README.md for the workloads, the metric map and how the
// limits were chosen. The -freeze flag recomputes truth.json on the plain
// graph path.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
}

// result is the benchmark's verdict on one run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts requests against the ground truth. A request fails when its
// verdict is wrong, it errs, or it is still refused after retries; any of
// these also makes the run incorrect. A verdict undecided at the limit is
// not an operation that failed but a measured outcome: it counts against
// answered_share (whose complement is the failed share: wrong, errors,
// refused and undecided together) and is listed by name.
type tally struct {
	attempted, failed int
	wrong             []string
	undecided         []string
	errors            []string
}

func (t *tally) wrongOrError() bool { return len(t.wrong) > 0 || len(t.errors) > 0 }

func (t *tally) answeredShare() float64 {
	if t.attempted == 0 {
		return 0
	}
	return 1 - float64(t.failed+len(t.undecided))/float64(t.attempted)
}

// judge records one answered request against the table.
func (t *tally) judge(truth map[string]truthEntry, name, verdict string) {
	t.attempted++
	want, ok := truth[name]
	if !ok || want.Verdict != verdict {
		t.failed++
		t.wrong = append(t.wrong, fmt.Sprintf("%s: got %q want %q", name, verdict, want.Verdict))
	}
}

func (t *tally) undecidedAt(name string) {
	t.attempted++
	t.undecided = append(t.undecided, name)
}

func (t *tally) errored(name string, err string) {
	t.attempted++
	t.failed++
	t.errors = append(t.errors, name+": "+err)
}

func (t *tally) report() {
	for _, s := range t.undecided {
		fmt.Printf("undecided at the limit: %s\n", s)
	}
	for _, s := range t.wrong {
		fmt.Printf("WRONG verdict: %s\n", s)
	}
	for _, s := range t.errors {
		fmt.Printf("ERROR: %s\n", s)
	}
}

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain())
	}
	var (
		workload = flag.String("workload", "", "cold-verdict, served-mix or edit-session")
		seed     = flag.Int64("seed", 1, "input seed")
		seconds  = flag.Int("seconds", 10, "measuring time per run")
		trace    = flag.Int("trace", 0, "1 for the traced per-layer run")
		freeze   = flag.Bool("freeze", false, "recompute the ground-truth table on the plain graph path and print it")
	)
	flag.Parse()
	if *freeze {
		if err := freezeTruth(); err != nil {
			fmt.Fprintln(os.Stderr, "freeze:", err)
			os.Exit(1)
		}
		return
	}
	cfg := config{workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	truth, err := loadTruth()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var res *result
	switch cfg.workload {
	case "cold-verdict":
		res, err = runCold(cfg, truth)
	case "served-mix":
		res, err = runServed(cfg, truth)
	case "edit-session":
		res, err = runEdit(cfg, truth)
	default:
		err = fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "verdictbench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("metric %-32s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// endToEnd assembles the untraced metrics every workload reports. Each
// workload fills them with its own meaning of the name; README.md maps
// them to the metrics named in the design.
type endToEnd struct {
	setup         []float64 // seconds, one per repetition
	answered      float64
	peakRSSMB     float64
	p50, tail     float64 // ms
	geomean       float64 // ms
	throughputRPS float64
}

func (e endToEnd) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":            {median(e.setup), "s"},
		"answered_share":     {e.answered, "share"},
		"peak_rss_mb":        {e.peakRSSMB, "MB"},
		"latency_p50_ms":     {e.p50, "ms"},
		"latency_tail_ms":    {e.tail, "ms"},
		"latency_geomean_ms": {e.geomean, "ms"},
		"throughput_rps":     {e.throughputRPS, "1/s"},
	}
}

// tailOf is the tail latency of a closed-loop workload: the highest
// percentile that keeps at least ten samples beyond it, capped at p99,
// estimated by hdQuantile.
func tailOf(xs []float64) (pct, v float64) {
	pct, _, ok := tailPercentile(xs, 10)
	if !ok {
		return 100, percentile(xs, 100)
	}
	pct = min(pct, 99)
	return pct, hdQuantile(xs, pct/100)
}

// vmHWM reads this process's peak resident set size in MB.
func vmHWM() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if _, err := fmt.Sscanf(line, "VmHWM: %f kB", &kb); err == nil {
			return kb / 1024
		}
	}
	return 0
}
