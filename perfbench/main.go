// Command perfbench is GNNVault's served-path benchmark: it drives one of
// three HTTP workloads against the real serving stack (serve.API →
// MultiServer/ShardedServer → registry → core → enclave → exec →
// mat/graph), checks every answer, and prints the end-to-end metrics
// (--trace 0) or the per-layer ledger from a traced replay (--trace 1).
// The last line of standard output is the result as one JSON object.
//
//	bash perfbench/run.sh --workload node-queries --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"gnnvault/internal/obs"
)

// setupRepeats is how many times an untraced run builds its stack from
// scratch; setup_s is the median.
const setupRepeats = 3

// replaySamples is how many of each workload's requests the traced run
// replays layer by layer.
var replaySamples = map[string]int{wFleet: 60, wNode: 150, wShard: 10}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "fleet-fullgraph | node-queries | shard-int8")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "length of the timed load phase")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer replay")
	flag.Parse()
	if err := run(*workload, *seed, time.Duration(*seconds)*time.Second, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, d time.Duration, traced bool) error {
	cfg, err := loadLedger()
	if err != nil {
		return err
	}
	var build func(ledger, int64, obs.Recorder) (*stack, error)
	var clients int
	open := false
	switch workload {
	case wFleet:
		build, clients = buildFleet, cfg.Fleet.Clients
	case wNode:
		build, clients, open = buildNodeQueries, cfg.NodeQueries.Connections, true
	case wShard:
		build, clients = buildShard, cfg.Shard.Clients
	default:
		return fmt.Errorf("unknown --workload %q (want %s, %s or %s)", workload, wFleet, wNode, wShard)
	}

	// Set-up: generation, training, seal and deploy, calibration, the
	// in-proc reference and one warm-up pass per vault, up to the first
	// timed request. Untraced runs repeat it and report the median.
	var rec *switchRecorder
	var prog obs.Recorder
	repeats := setupRepeats
	if traced {
		// Program spans are on during set-up, so its plans are recorded.
		rec = &switchRecorder{ring: obs.NewRing(1 << 16)}
		rec.on.Store(true)
		prog, repeats = rec, 1
	}
	var setups []float64
	var s *stack
	for i := 0; i < repeats; i++ {
		if s != nil {
			s.shutdown()
			s = nil
			runtime.GC()
		}
		t0 := time.Now()
		if s, err = build(cfg, seed, prog); err != nil {
			return fmt.Errorf("%s set-up: %w", workload, err)
		}
		if err = s.serveHTTP(); err != nil {
			s.shutdown()
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer s.shutdown()
	b := newBench(workload, cfg, seed, s)
	c := newClient(s.url, clients)
	defer c.close()
	var setupPlans []obs.Span
	if traced {
		// Plans made during set-up (the node-query path plans nothing
		// later), read before the load phase's spans could overwrite them.
		rec.on.Store(false)
		setupPlans = programSpans(rec.ring, obs.SpanPlan)
	}

	// The timed load phase. Set-up garbage is collected and returned to
	// the OS first, so neither runs during it.
	debug.FreeOSMemory()
	before := s.snapshot()
	epc := sampleEPC(s, 5*time.Millisecond)
	var load loadResult
	loop := "closed"
	if open {
		loop = "open"
		nq := cfg.NodeQueries
		due := poissonSchedule(subSeed(seed, 5), nq.RateRPS, int(nq.RateRPS*d.Seconds()))
		reqs := make([]request, len(due))
		for i := range reqs {
			reqs[i] = b.next()
		}
		load = openLoop(c, clients, due, reqs, b.check)
	} else {
		load = closedLoop(c, clients, d, b.next, b.check)
	}
	peakEPC := epc.finish()
	after := s.snapshot()

	meta := runMeta(workload, seed, d, loop, clients, cfg, s.plan)
	tailP, nRounds := tailFor(cfg, workload)
	res := result{Metrics: map[string]metric{}}
	res.Attempted, res.Failed = load.Sent, load.Failed+load.Refused
	correct := res.Failed == 0 && load.Sent > 0
	var problems []string
	if load.firstErr != nil {
		problems = append(problems, load.firstErr.Error())
	}
	report := map[string]any{"meta": meta, "setup": phase{Sent: s.setupCalls, Succeeded: s.setupCalls}, "load": load.phase}

	if !traced {
		answered := float64(load.Succeeded) / float64(max(load.Sent, 1))
		ok := max(load.Succeeded, 1)
		boundary := (after.ledger.TransitionNs + after.ledger.TransferNs + after.ledger.PagingNs) -
			(before.ledger.TransitionNs + before.ledger.TransferNs + before.ledger.PagingNs)
		// Latencies are medians over equal rounds of the phase, so a burst
		// of contention from the host that hits a minority of rounds does
		// not move them.
		byRound := rounds(load.startS, load.latencyMS, d.Seconds(), nRounds)
		p50s, tails := roundQuantiles(byRound, 0.5), roundQuantiles(byRound, tailP/100)
		m := res.Metrics
		m["setup_s"] = metric{median(setups), "s"}
		m["throughput_rps"] = metric{float64(load.Succeeded) / load.wall.Seconds(), "1/s"}
		m["latency_p50_ms"] = metric{median(p50s), "ms"}
		m["latency_tail_ms"] = metric{median(tails), "ms"}
		m["answered_ratio"] = metric{answered, "ratio"}
		m["epc_peak_mb"] = metric{float64(peakEPC) / (1 << 20), "MB"}
		m["sgx_boundary_ms_per_req"] = metric{float64(boundary) / 1e6 / float64(ok), "ms"}
		report["node_agreement"] = b.agree.ratio()
		report["setup_s_each"] = setups
		report["latency_tail_percentile"] = tailP
		report["latency_samples"] = len(load.latencyMS)
		report["rounds"] = nRounds
		report["latency_p50_rounds_ms"] = p50s
		report["latency_tail_rounds_ms"] = tails
		report["latency_p50_whole_phase_ms"] = quantile(load.latencyMS, 0.5)
		report["latency_tail_whole_phase_ms"] = quantile(load.latencyMS, tailP/100)
		smallest := len(load.latencyMS)
		for _, r := range byRound {
			smallest = min(smallest, len(r))
		}
		report["round_samples_min"] = smallest
		// A slower program answers fewer requests in the same time; the
		// percentile stays fixed so runs stay comparable, and the report
		// says which percentile the smallest round supports (at least ten
		// samples beyond it).
		report["tail_percentile_supported"] = tailPercentile(smallest)
		if tailPercentile(smallest) < tailP {
			fmt.Fprintf(os.Stderr, "perfbench: p%g has fewer than ten of the smallest round's %d samples beyond it\n", tailP, smallest)
		}
		if open {
			report["loadgen_late_ms_mean"] = mean(load.lateMS)
		}
	} else {
		st, err := b.replay(c, rec, replaySamples[workload])
		res.Attempted += st.Sent
		res.Failed += st.Failed + st.Refused
		if err != nil {
			correct = false
			problems = append(problems, err.Error())
		} else {
			cov := coverage(st.tr.spans)
			layerMetrics(res.Metrics, workload, st, load, before, after, s, rec, setupPlans)
			if math.Abs(cov-1) > cfg.Trace.CoverageTolerance {
				correct = false
				problems = append(problems, fmt.Sprintf("trace.coverage %.3f outside 1±%.2f", cov, cfg.Trace.CoverageTolerance))
			}
			report["replay"] = st.phase
			report["layer_self_ms"] = layerSummary(st.tr.spans)
			report["kernel_probes"] = st.kt.summary()
			if err := writeSpans(workload, seed, st); err != nil {
				problems = append(problems, err.Error())
				correct = false
			}
		}
	}
	correct = correct && len(problems) == 0
	res.Correct = correct
	if len(problems) > 0 {
		report["problems"] = problems
	}
	for k, v := range res.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			res.Correct = false
			v.Value = -1
			res.Metrics[k] = v
		}
	}
	printReport(workload, res, report)
	if !res.Correct {
		return fmt.Errorf("%s: correctness gate failed: %s", workload, strings.Join(problems, "; "))
	}
	return nil
}

// tailFor returns the workload's fixed tail percentile and how many
// equal rounds its load phase is split into: as many as leave at least
// ten samples beyond that percentile in each round, up to five.
func tailFor(cfg ledger, workload string) (percentile float64, rounds int) {
	switch workload {
	case wFleet:
		return cfg.Fleet.TailPercentile, cfg.Fleet.Rounds
	case wNode:
		return cfg.NodeQueries.TailPercentile, cfg.NodeQueries.Rounds
	}
	return cfg.Shard.TailPercentile, cfg.Shard.Rounds
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// runMeta is the host and run metadata every result carries.
func runMeta(workload string, seed int64, d time.Duration, loop string, clients int, cfg ledger, plan planInfo) map[string]any {
	m := map[string]any{
		"workload": workload, "seed": seed, "seconds": d.Seconds(), "loop": loop,
		"gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"cpu_model": cpuModel(), "go_version": runtime.Version(), "commit": commit(),
		"plan": plan,
	}
	if loop == "open" {
		m["rate_rps"] = cfg.NodeQueries.RateRPS
		m["connections"] = clients
	} else {
		m["clients"] = clients
	}
	return m
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, when the build
// could stamp one.
func commit() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// writeSpans writes the traced replay's spans under .bench_build/.
func writeSpans(workload string, seed int64, st *replayStats) error {
	dir := filepath.Join(".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	data, err := json.Marshal(map[string][]span{"chain": st.tr.spans, "probes": st.probes.spans})
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", workload, seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// printReport prints the human-readable metric table, the report as one
// JSON line, and the result as the last line.
func printReport(workload string, res result, report map[string]any) {
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Printf("%s: %d attempted, %d failed, correct=%v\n", workload, res.Attempted, res.Failed, res.Correct)
	for _, k := range names {
		fmt.Printf("  %-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	if data, err := json.Marshal(report); err == nil {
		fmt.Printf("report %s\n", data)
	}
	data, _ := json.Marshal(res) // NaN/Inf were replaced above; a map of floats marshals
	fmt.Println(string(data))
}
