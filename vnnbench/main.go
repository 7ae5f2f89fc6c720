// Command vnnbench is the repository's end-to-end benchmark: it loads
// pkg/vnnserver over HTTP with one of three workloads, checks every
// answer, and prints what a user of the service would see. A separate
// traced run (-trace 1) replays the same requests through each layer's
// public functions and reports per-layer numbers.
//
// Run it from the repository root through its wrapper, which builds this
// module into .bench_build first:
//
//	bash vnnbench/run.sh --workload verify-table2 --seed 1 --seconds 20 --trace 0
//
// The server is this binary re-executed as a child process (see
// serveIfChild) running vnnserver.New with its default configuration. The
// load comes from this one process over at most min(2, NumCPU)
// connections. The seed is an argument; the server receives only the
// generated requests.
//
// # Workloads, and why each exists
//
// verify-table2 (closed loop, one client). POST /v1/verify, region
// left_occupied, "max" over the μ_lat outputs of the Table II I2x6, I2x8
// and I2x10 predictors (trained with bench_test.go's recipe), then the
// 3 m/s at_most proof on I2x10. workers is left unset, as a real client
// would, and the resolved count is read back from the request's trace.
// Each query sends a copy of the trained network whose hidden neurons
// are permuted by the seed: the function, and so every Table II value,
// is unchanged, but the fingerprint is new, so each query is the first
// for its fingerprint on its server and pays its compile. Permutation
// moves the node count by about 3%. internal/lp, internal/milp and
// internal/bounds do almost all the work here; the wire codec, kernels
// and monitor almost none. This is where branch-and-bound changes (node
// counts, the parallel engine against one worker) must show up.
//
// infer-warm (open loop, fixed rates). POST /v1/infer by fingerprint and
// monitor_fingerprint against the trained I2x10 predictor, with a γ=1
// monitor built from its training set during warm-up. Each request
// carries 64 scenes: ¾ held-out simulator observations and ¼
// highway.RandomFeatureVector draws, so the monitor's reject path runs.
// Latency is measured at a reference rate (200 req/s), each request
// timed from when it was due; then a geometric ladder of fixed rates
// finds max_rps, the highest rate whose p99 stays within 10 ms with no
// growing backlog. The wire
// decode/encode, routing and cache-hit path do most of the work and the
// solver none; kernels and monitor are a few percent, so a kernel-only
// gain should barely move this workload.
//
// infer-onboard (closed loop, one client). Full-upload monitored
// /v1/infer where every request is a model never seen before: an
// untrained I2x10 vnn.NewPredictor with a per-request seed, an explicit
// region box, a 512-row monitor set and a 64-input batch. A run sends
// more distinct models than the default cache capacity (64). This
// exercises large-body decode, UnmarshalNetwork, Fingerprint, Compile,
// BuildMonitor and the miss/evict path of the compile, monitor and
// workload caches: the cache layer used the other way round from
// infer-warm, with writes where that workload has hits.
//
// # End-to-end metrics (-trace 0)
//
// Every workload prints what a user of the service sees:
//
//   - queries_per_s (verify-table2: Table II queries answered per
//     second), max_rps (infer-warm: the highest ladder rate whose p99
//     stays within 10 ms with no growing backlog), models_per_s
//     (infer-onboard: new models served to their first monitored batch
//     per second);
//   - p50_ms and the tail, the highest percentile with at least ten
//     samples beyond it, with its sample count: of whole Table II rounds,
//     of requests at the reference rate, of onboarding requests;
//   - failed_ratio: failed or wrong responses over attempted, also
//     carried by the result's attempted/failed counts. A failed response
//     counts as missing the latency limit.
//
// Three of them are bounded in BENCHMARK.json and reported in the
// result line:
//
//   - setup_s: CPU seconds this process and the serving child spent on
//     dataset generation, training and warm-up; set up five times,
//     median (the median wall time is printed beside it);
//   - cpu_ms_per_req: CPU time the serving process spent per Table II
//     query, per request at the reference rate, per onboarded model;
//   - rss_peak_mb: peak resident memory of the serving process.
//
// Wall-clock figures are not bounded because on the 2-vCPU virtual
// machine this benchmark was sized on, shared with other tenants, they
// did not hold still: over minutes the hypervisor's steal rose from 1% to
// 29% of the machine, the same Table II round took 6.4 s or 12.9 s, p99
// at 200 req/s read 4–27 ms, and ten runs of one tree spread their
// queries_per_s by 36% (first to third quartile, over the median). Time
// the hypervisor or other tenants take is not charged to a process, so
// its CPU time per request spread by 4–10% over the same runs.
//
// # Per-layer metrics (-trace 1), and what each should move
//
//   - milp.nodes, milp.solves, lp.pivots, bounds.binaries,
//     bounds.stable_neurons (exact counts of the first Table II round,
//     from Result.Stats and Server.Metrics()), milp.solve_s (per query)
//     and lp.us_per_pivot (replayed solve time ÷ replayed pivots):
//     queries_per_s and cpu_ms_per_req on verify-table2; nothing on the
//     infer workloads.
//   - verify.compile_ms, verify.encode_passes and verify.tighten_passes
//     (per Table II round on verify-table2, per request on
//     infer-onboard), bounds.propagate_us: models_per_s, p50_ms and
//     cpu_ms_per_req on infer-onboard. On verify-table2 a compile is
//     milliseconds against multi-second solves, so the prediction there
//     is no change.
//   - wire.decode_us, wire.encode_us, wire.req_bytes, wire.resp_bytes
//     (json.Unmarshal into InferRequest/VerifyRequest and json.Marshal
//     of the responses, on the workload's own bodies): p50_ms, max_rps
//     and cpu_ms_per_req on infer-warm; models_per_s and cpu_ms_per_req
//     on infer-onboard.
//   - vnn.unmarshal_network_us, vnn.fingerprint_us, monitor.build_ms,
//     monitor.patterns: infer-onboard.
//   - nn.forward_batch_us, monitor.check_batch_us (which includes the
//     monitor's own forward pass), monitor.flagged_ratio, and the
//     computed linalg.flop_per_req and linalg.bytes_per_req: p50_ms and
//     cpu_ms_per_req on infer-warm, by at most their share.
//   - vnnserver.cache.hit_ratio (responses served from cached artifacts
//     ÷ responses), vnnserver.cache.evictions, vnnserver.handler_p50_ms
//     (from the server's request histogram, which starts after the
//     request is decoded; client p50 minus this is decode plus
//     transport) and vnnserver.queue_wait_ms: they explain infer-warm
//     (hit ≈ 1) against infer-onboard (hit = 0, evictions > 0).
//   - highway.dataset_s, train.fit_s (wall time): setup_s.
//   - harness.gen_late_ms (p99 of how late the open-loop generator sent)
//     and harness.trace_overhead (traced ÷ untraced replay wall time).
//
// A layer a workload does not reach reports 0; on infer-warm the upload
// that primes the replay is not traced, so the layers only it reaches
// (unmarshal, fingerprint, compile, monitor build) read 0 there too.
// Times are means per call of the layer's self time in the replay; the
// spans are kept in memory and written to .bench_build/traces when the
// run ends. The server-side numbers (cache, evictions, handler p50, queue
// wait, flagged ratio) are Server.Metrics() deltas over the traced run's
// own HTTP phase: one Table II round, half the measurement time at the
// reference rate, or half the measurement time of onboarding.
//
// # Sizing evidence
//
// On a 2-core Xeon with go1.24:
//
//   - I2x8 solve time varies 0.92–1.23 s across runs at a fixed 1418
//     nodes, so the verify workload repeats whole rounds and reports
//     medians.
//   - Warm batch-64 infer decode takes ~1.0 ms, against forward 21 µs
//     and monitor 28 µs (the traced replay reads 1.3–1.4 ms, 22–27 µs
//     and 30–37 µs under load from other tenants).
//   - Onboarding decode takes ~10 ms per 379 KB body (replay: 10–13 ms
//     per 396 KB body).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef names a reported metric and its unit; the lists mirror
// BENCHMARK.json.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_req", "ms"},
	{"rss_peak_mb", "MB"},
}

var perLayer = []metricDef{
	{"milp.nodes", "count"},
	{"milp.solves", "count"},
	{"lp.pivots", "count"},
	{"bounds.binaries", "count"},
	{"bounds.stable_neurons", "count"},
	{"milp.solve_s", "s"},
	{"lp.us_per_pivot", "us"},
	{"verify.compile_ms", "ms"},
	{"verify.encode_passes", "count"},
	{"verify.tighten_passes", "count"},
	{"bounds.propagate_us", "us"},
	{"wire.decode_us", "us"},
	{"wire.encode_us", "us"},
	{"wire.req_bytes", "bytes"},
	{"wire.resp_bytes", "bytes"},
	{"vnn.unmarshal_network_us", "us"},
	{"vnn.fingerprint_us", "us"},
	{"monitor.build_ms", "ms"},
	{"monitor.patterns", "count"},
	{"nn.forward_batch_us", "us"},
	{"monitor.check_batch_us", "us"},
	{"monitor.flagged_ratio", "ratio"},
	{"linalg.flop_per_req", "flop"},
	{"linalg.bytes_per_req", "bytes"},
	{"vnnserver.cache.hit_ratio", "ratio"},
	{"vnnserver.cache.evictions", "count"},
	{"vnnserver.handler_p50_ms", "ms"},
	{"vnnserver.queue_wait_ms", "ms"},
	{"highway.dataset_s", "s"},
	{"train.fit_s", "s"},
	{"harness.gen_late_ms", "ms"},
	{"harness.trace_overhead", "ratio"},
}

// config sizes a run. defaultConfig is the benchmark; tests shrink it.
type config struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	conns     int
	setupReps int
	traceDir  string
	// tamper, when set, rewrites every POST response body before it is
	// checked; tests use it to corrupt answers.
	tamper func([]byte) []byte

	// Table II recipe (bench_test.go).
	widths          []int // verified widths; the proof runs on the last
	epochs          int
	episodes, steps int
	// references are the Table II values by width; nil skips the check
	// (a shrunken recipe trains other networks).
	references map[int]float64

	// Inference workloads.
	batch       int     // inputs per request
	batches     int     // distinct infer-warm batches
	refRate     float64 // infer-warm reference rate (requests/s)
	growth      float64 // infer-warm ladder: each rate is growth × the last
	stepSamples int     // infer-warm ladder: requests per step, at least
	monitorRows int     // infer-onboard monitor set rows
}

func defaultConfig() config {
	return config{
		seed:        1,
		seconds:     20,
		conns:       min(2, runtime.NumCPU()),
		setupReps:   5,
		traceDir:    ".bench_build/traces",
		widths:      []int{6, 8, 10},
		epochs:      10,
		episodes:    3,
		steps:       150,
		references:  tableIIReferences,
		batch:       64,
		batches:     64,
		refRate:     200,
		growth:      1.25,
		stepSamples: 1000,
		monitorRows: 512,
	}
}

// Fixed parameters of the workloads.
const (
	// proofThreshold is Table II's lateral-velocity bound (m/s).
	proofThreshold = 3.0
	// limitMS is infer-warm's p99 latency limit for max_rps.
	limitMS = 10.0
)

// tableIIReferences are Table II's maximum lateral velocities (m/s) of
// the bench_test.go predictors over the left-occupied region.
var tableIIReferences = map[int]float64{
	6:  3.9785311026512744,
	8:  2.8677203357704895,
	10: 4.0174874253281487,
}

// report is one workload run's outcome.
type report struct {
	attempted, failed int
	workers           int // resolved verify worker count (0: not applicable)
	e2e               map[string]float64
	layer             map[string]float64
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check counts one attempted operation, failed unless err is nil.
func (r *report) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.failed <= 5 {
			fmt.Println("FAILED:", err)
		}
	}
}

var workloads = map[string]func(config) (*report, error){
	"verify-table2": runVerifyTable2,
	"infer-warm":    runInferWarm,
	"infer-onboard": runInferOnboard,
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	serveIfChild()
	cfg := defaultConfig()
	flag.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "measurement seconds")
	traceFlag := flag.Int("trace", 0, "1 runs the traced per-layer replay instead of the end-to-end measurement")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vnnbench:", err)
		os.Exit(1)
	}
	fmt.Println(out)
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one workload, prints its human-readable lines and
// returns the result line.
func run(cfg config) (string, error) {
	fn, ok := workloads[cfg.workload]
	if !ok {
		return "", fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames(), ", "))
	}
	start, stat0 := time.Now(), readCPUStat()
	rep, err := fn(cfg)
	if err != nil {
		return "", fmt.Errorf("%s: %w", cfg.workload, err)
	}
	workers := "n/a"
	if rep.workers > 0 {
		workers = fmt.Sprint(rep.workers)
	}
	fmt.Printf("provenance: cpu=%q gomaxprocs=%d load_gomaxprocs=1 go=%s verify_workers=%s conns=%d seed=%d seconds=%g trace=%t wall_s=%.1f steal=%.3f\n",
		cpuModel(), runtime.GOMAXPROCS(0), runtime.Version(), workers, cfg.conns, cfg.seed, cfg.seconds, cfg.trace,
		time.Since(start).Seconds(), stealShare(stat0, readCPUStat()))
	fmt.Printf("metric failed_ratio = %g ratio (%d failed of %d attempted)\n",
		float64(rep.failed)/float64(max(rep.attempted, 1)), rep.failed, rep.attempted)
	defs, vals := endToEnd, rep.e2e
	if cfg.trace {
		defs, vals = perLayer, rep.layer
	}
	res := resultJSON{
		Correct:   rep.failed == 0 && rep.attempted > 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricJSON{},
	}
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok && !cfg.trace {
			return "", fmt.Errorf("%s: workload reported no %s", cfg.workload, d.name)
		}
		fmt.Printf("metric %s = %v %s\n", d.name, v, d.unit)
		res.Metrics[d.name] = metricJSON{Value: v, Unit: d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// cpuModel is the host CPU model from /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// loadProcs limits this process to one P while it generates load and
// returns the function that restores the old setting. With more, the
// Go scheduler's idle spinning in the load generator takes CPU from the
// serving process on a small machine and inflates its tail latency.
func loadProcs() func() {
	prev := runtime.GOMAXPROCS(1)
	return func() { runtime.GOMAXPROCS(prev) }
}

// repeatSetup starts a serving process and prepares the workload on it
// cfg.setupReps times, keeping the last and stopping the others. It
// returns the median CPU seconds a set-up cost this process and its
// serving child together, and prints the median wall time beside it: on
// a shared machine the wall time of the same set-up swings by half, its
// CPU time by a few percent.
func repeatSetup[T any](cfg config, prepare func(*server) (T, error)) (T, *server, float64, error) {
	var (
		st         T
		srv        *server
		cpu, walls []float64
	)
	for i := 0; i < max(cfg.setupReps, 1); i++ {
		if srv != nil {
			if err := srv.stop(); err != nil {
				return st, nil, 0, fmt.Errorf("stop set-up server: %w", err)
			}
		}
		t0, c0 := time.Now(), processCPUSeconds()
		var err error
		if srv, err = startServer(cfg); err != nil {
			return st, nil, 0, err
		}
		if st, err = prepare(srv); err != nil {
			srv.stop()
			return st, nil, 0, err
		}
		child, err := srv.cpuSeconds()
		if err != nil {
			srv.stop()
			return st, nil, 0, err
		}
		cpu = append(cpu, processCPUSeconds()-c0+child)
		walls = append(walls, time.Since(t0).Seconds())
	}
	fmt.Printf("setup: %d set-ups, median wall %.3fs, median CPU %.3fs\n", len(cpu), median(walls), median(cpu))
	return st, srv, median(cpu), nil
}

// processCPUSeconds is this process's CPU time, all threads.
func processCPUSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
