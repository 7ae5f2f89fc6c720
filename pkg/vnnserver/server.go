// Package vnnserver is the verification service layer above pkg/vnn: a
// long-running HTTP server (see cmd/vnnd) through which a fleet of
// clients shares one warm verification engine.
//
// Three pieces turn the library API into a service:
//
//   - A fingerprint-keyed LRU compile cache with singleflight (Cache):
//     vnn.Compile — the expensive, reusable part of every query — runs at
//     most once per distinct (network, region, compile options) workload,
//     no matter how many clients ask concurrently.
//
//   - An admission scheduler (Scheduler): a bounded FIFO queue with
//     immediate backpressure when full, a cap on concurrently running
//     queries, and fair-share division of GOMAXPROCS across whatever is
//     in flight.
//
//   - A job registry streaming vnn.Event progress over SSE while a query
//     runs, and retaining finished results for later retrieval.
//
// Every budget is a context: per-request deadlines, client disconnects
// and server drain all reach the simplex pivot loops the same way, and an
// interrupted query answers with its anytime Result (best witness plus
// tightest proven bound at interruption) instead of an error.
//
// Endpoints:
//
//	POST /v1/verify              batch of properties over one network+region
//	GET  /v1/verify/{id}         result of a (possibly async) query
//	GET  /v1/verify/{id}/events  SSE progress stream, terminated by the result
//	POST /v1/analyze             dependability portfolio batch (coverage,
//	                             traceability, quant sweeps, data validation,
//	                             verification, falsification) over one
//	                             compiled network — see AnalyzeRequest
//	GET  /v1/analyze/{id}        result of a (possibly async) analyze batch
//	GET  /v1/analyze/{id}/events SSE per-analysis progress stream
//	POST /v1/infer               online inference plane: batch of inputs →
//	                             predictions (bit-identical to nn.Forward)
//	                             + per-input runtime-monitor verdicts,
//	                             low-latency (no queue, no SSE) — see
//	                             InferRequest
//	POST /v1/falsify             PGD falsification pre-pass
//	POST /v1/models              submit a named model version for the
//	                             certification-gated rollout plane
//	                             (pkg/vnnregistry); the gate runs async
//	                             through the scheduler/job registry
//	GET  /v1/models              every model's rollout document
//	GET  /v1/models/{name}       one model's rollout document
//	GET  /v1/models/{name}/events  SSE gate progress for a version
//	POST /v1/models/{name}/promote rollout control: canary share or cutover
//	POST /v1/models/{name}/rollback one-RTT swap back to the previous live
//	GET  /v1/workloads           index of cached serving workloads
//	GET  /healthz                liveness (always 200 while the process
//	                             can answer; reports drain state)
//	GET  /readyz                 readiness: 503 while draining or before
//	                             registry recovery completes
//	GET  /metrics                JSON metrics snapshot (see Metrics),
//	                             including per-kind analysis counters;
//	                             the server's only counter source
package vnnserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"math/rand/v2"
	"net/http"
	"net/http/pprof"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/verify"
	"repro/pkg/vnn"
	"repro/pkg/vnnfleet"
	"repro/pkg/vnnregistry"
)

// Config tunes a Server. The zero value serves with sane defaults.
type Config struct {
	// CacheEntries caps the compile cache (<= 0 means 64).
	CacheEntries int
	// MaxConcurrent caps queries running at once (<= 0 means GOMAXPROCS).
	MaxConcurrent int
	// QueueDepth caps queries waiting for a run slot (0 means 256,
	// negative means reject as soon as every run slot is busy).
	QueueDepth int
	// DefaultTimeout applies to requests that set no timeout_ms of their
	// own; 0 means no deadline.
	DefaultTimeout time.Duration
	// MaxBodyBytes caps request bodies (<= 0 means 32 MiB).
	MaxBodyBytes int64
	// InferWorkers is the number of per-core serving lanes /v1/infer
	// shards batches across (<= 0 means GOMAXPROCS). Each lane owns its
	// kernel scratch; the count never affects output bits.
	InferWorkers int
	// Peers is the static fleet membership: base URLs of sibling vnnd
	// nodes (e.g. "http://10.0.0.2:8419") whose compile and monitor
	// caches this server replicates via rateless set reconciliation
	// (pkg/vnnfleet). Empty means no reconcile loop; the fleet
	// endpoints are mounted regardless, so other nodes may still pull
	// from this one.
	Peers []string
	// FleetInterval is the reconcile loop period (<= 0 means 30s).
	FleetInterval time.Duration
	// TraceRing caps the flight recorder's recent-trace ring (<= 0
	// means 256; rounded up to a power of two).
	TraceRing int
	// SlowRequest, when positive, logs every request at least this slow
	// through SlowLog (cmd/vnnd's -slow-log flag).
	SlowRequest time.Duration
	// SlowLog receives the structured slow-request lines; nil disables
	// them even with SlowRequest set.
	SlowLog func(format string, args ...any)
	// EnablePprof mounts net/http/pprof under /debug/pprof/ (cmd/vnnd's
	// -pprof flag). Off by default: profiles expose enough about a
	// node's workload that they are opt-in.
	EnablePprof bool
	// DataDir is the model registry's persistence directory (cmd/vnnd's
	// -data-dir flag): registry.json snapshot plus transitions.log. Empty
	// means registry state lives for the process only.
	DataDir string
	// DefaultGate applies to model submissions that carry no gate of
	// their own (cmd/vnnd's -gate flag). Nil means ungated submissions
	// are admitted without analysis.
	DefaultGate *vnn.GateSpec
	// NodeID is this node's stable identity in fleet observability: it
	// keys the node's block in /v1/fleet/metrics and stamps every trace
	// segment the node records. Empty derives hostname-<4 hex> once at
	// boot (stable for the process lifetime; set it explicitly for
	// identities that survive restarts).
	NodeID string
	// TenantCap is the hard cardinality cap on per-tenant metric labels
	// (<= 0 means obs.DefaultTenantCap): the first TenantCap distinct
	// X-API-Key values get their own series, everything after accounts
	// under the "other" tenant.
	TenantCap int
	// Log receives operational diagnostics (registry recovery and
	// persistence problems); nil discards them.
	Log func(format string, args ...any)
}

// Server is the verification service. Create with New, mount as an
// http.Handler, and call Drain before process exit so in-flight queries
// deliver their anytime results.
type Server struct {
	cfg      Config
	nodeID   string
	cache    *Cache
	monitors *monitorCache
	sched    *Scheduler
	jobs     *registry
	mux      *http.ServeMux
	start    time.Time

	// shards are the inference plane's per-core serving lanes (see
	// inferShard): each owns its kernel scratch outright, so the hot
	// path never contends on a sync.Pool. workloads remembers served
	// (network, region, options) triples for by-fingerprint requests.
	shards    *inferShards
	workloads *lru[string, *inferWorkload]

	// fleet is the replication peer (see fleet.go for the Store
	// implementation); its endpoints are always mounted, its reconcile
	// loop runs only when Config.Peers is non-empty.
	fleet *vnnfleet.Peer

	// registry is the verified-rollout plane (see registry.go for the
	// HTTP surface): versioned models behind certification gates, served
	// through /v1/infer?model=. Recovery runs asynchronously from New;
	// /readyz reports its completion.
	registry *vnnregistry.Registry

	// obs is the flight recorder and histogram set (see obs.go).
	obs *serverObs

	// queryCtx parents every query; cancelQueries is the drain switch.
	queryCtx      context.Context
	cancelQueries context.CancelFunc
	draining      atomic.Bool
	// drainMu serializes admission against Drain: a request is either
	// admitted (and then always waited for) or sees the draining flag —
	// never admitted after Drain stopped waiting. It also keeps wg.Add
	// strictly before Drain's wg.Wait.
	drainMu sync.Mutex
	wg      sync.WaitGroup // async (wait:false) queries in flight

	queries        atomic.Int64
	analyzes       atomic.Int64
	falsifications atomic.Int64
	nodes          atomic.Int64
	pivots         atomic.Int64
	inferRequests  atomic.Int64
	inferInputs    atomic.Int64
	inferFlagged   atomic.Int64

	// analysisMu guards analysisKinds, the per-kind count of analyses
	// served through /v1/analyze.
	analysisMu    sync.Mutex
	analysisKinds map[string]int64
}

// analysisCounts snapshots the per-kind analysis counters.
func (s *Server) analysisCounts() map[string]int64 {
	s.analysisMu.Lock()
	defer s.analysisMu.Unlock()
	return maps.Clone(s.analysisKinds)
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	qctx, cancel := context.WithCancel(context.Background())
	nodeID := cfg.NodeID
	if nodeID == "" {
		nodeID = defaultNodeID()
	}
	s := &Server{
		cfg:           cfg,
		nodeID:        nodeID,
		cache:         NewCache(cfg.CacheEntries),
		monitors:      newMonitorCache(cfg.CacheEntries),
		shards:        newInferShards(cfg.InferWorkers),
		workloads:     newLRU[string, *inferWorkload](cfg.CacheEntries, nil),
		sched:         NewScheduler(cfg.MaxConcurrent, cfg.QueueDepth),
		jobs:          newRegistry(),
		start:         time.Now(),
		obs:           newServerObs(cfg, nodeID),
		queryCtx:      qctx,
		cancelQueries: cancel,
		analysisKinds: make(map[string]int64),
	}
	// The scheduler reports its wait/run decomposition into the shared
	// histograms (set before any traffic can reach RunAdmitted).
	s.sched.queueWait = s.obs.queueWait
	s.sched.runTime = s.obs.runTime
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/verify", s.handleVerify)
	mux.HandleFunc("POST /v1/infer", s.handleInfer)
	mux.HandleFunc("GET /v1/verify/{id}", s.handleGetVerify)
	mux.HandleFunc("GET /v1/verify/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/analyze", s.handleAnalyze)
	mux.HandleFunc("GET /v1/analyze/{id}", s.handleGetVerify)
	mux.HandleFunc("GET /v1/analyze/{id}/events", s.handleEvents)
	mux.HandleFunc("POST /v1/falsify", s.handleFalsify)
	mux.HandleFunc("POST /v1/models", s.handleModelSubmit)
	mux.HandleFunc("GET /v1/models", s.handleModels)
	mux.HandleFunc("GET /v1/models/{name}", s.handleModel)
	mux.HandleFunc("GET /v1/models/{name}/events", s.handleModelEvents)
	mux.HandleFunc("POST /v1/models/{name}/promote", s.handleModelPromote)
	mux.HandleFunc("POST /v1/models/{name}/rollback", s.handleModelRollback)
	mux.HandleFunc("GET /v1/workloads", s.handleWorkloads)
	mux.HandleFunc("GET /v1/fleet/metrics", s.handleFleetMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /debug/traces", s.handleTraces)
	mux.HandleFunc("GET /debug/traces/{id}", s.handleTrace)
	if cfg.EnablePprof {
		// Explicit per-handler mounts: importing net/http/pprof only
		// registers on http.DefaultServeMux, which this server never
		// serves, so without this flag /debug/pprof/ stays 404.
		mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.registry = vnnregistry.New(vnnregistry.Config{
		Dir:          cfg.DataDir,
		Compile:      s.registryCompile,
		BuildMonitor: s.buildMonitor,
		ImportMonitor: func(m *vnn.Monitor) {
			// Recovered serving monitors also prime the by-content monitor
			// cache, so monitor_fingerprint requests work across restarts.
			s.monitors.importContent(m)
		},
		Logf: cfg.Log,
	})
	// Recovery runs off the boot path so the HTTP surface is up
	// immediately; /readyz answers 503 until it completes. The goroutine
	// joins the drain waitgroup, and its recompiles run under queryCtx, so
	// Drain interrupts an in-flight recovery rather than racing it.
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.registry.Recover(s.queryCtx)
	}()
	s.fleet = vnnfleet.NewPeer(s, vnnfleet.Options{
		Interval: cfg.FleetInterval,
		Recorder: s.obs.rec,
		Latency:  s.obs.reconcileTime,
	})
	s.fleet.Mount(mux)
	if len(cfg.Peers) > 0 {
		// The loop lives under the query context: drain (or process exit)
		// cancels it, and the loop also exits on its own once the store
		// reports draining.
		go s.fleet.Run(qctx, cfg.Peers)
	}
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// NodeID returns this node's stable observability identity.
func (s *Server) NodeID() string { return s.nodeID }

// defaultNodeID derives a boot-stable node identity: hostname plus a
// short random suffix, so co-hosted nodes (tests, CI fleets on one
// machine) never collide in the federation's nodes map.
func defaultNodeID() string {
	host, err := os.Hostname()
	if err != nil || host == "" {
		host = "vnnd"
	}
	return fmt.Sprintf("%s-%04x", host, rand.Uint32()&0xffff)
}

// startTrace opens the request's trace segment. A request carrying a
// valid W3C traceparent joins the caller's distributed trace — its
// trace id is adopted and the caller's span id recorded as the remote
// parent — while the local id (job id for verify/analyze) keeps the
// trace-id=job-id contract either way.
func (s *Server) startTrace(r *http.Request, route, id string) *obs.Trace {
	if tp, ok := obs.ParseTraceparent(r.Header.Get("traceparent")); ok {
		return s.obs.rec.StartRemote(route, id, tp)
	}
	return s.obs.rec.Start(route, id)
}

// tenantFor resolves the request's tenant from its X-API-Key header
// (absent key → the anonymous tenant; past the cardinality cap → the
// overflow tenant). Allocation-free for known tenants, which keeps the
// /v1/infer hot path at 0 allocs/op with accounting on.
func (s *Server) tenantFor(r *http.Request) *obs.TenantStats {
	return s.obs.tenants.Tenant(r.Header.Get("X-API-Key"))
}

// Cache exposes the compile cache (read-mostly: stats and tests).
func (s *Server) Cache() *Cache { return s.cache }

// Drain moves the server into drain mode: new queries are rejected with
// 503 while everything already admitted keeps running. Queries get grace
// to finish on their own; whatever is still running afterwards is
// interrupted through context cancellation, which makes each query
// deliver its anytime Result (best witness and tightest proven bound at
// the moment of interruption) through its normal response path — never a
// dropped connection or a bare error. Drain returns once every async
// query has finished; synchronous responses are written by their HTTP
// handlers, which the caller's http.Server.Shutdown awaits (see
// cmd/vnnd). Safe to call repeatedly.
func (s *Server) Drain(grace time.Duration) {
	s.drainMu.Lock()
	s.draining.Store(true)
	s.drainMu.Unlock()
	if grace > 0 {
		deadline := time.Now().Add(grace)
		for time.Now().Before(deadline) {
			// Admitted covers the whole admission-token lifetime, so a
			// query between Admit and its first scheduler counter still
			// gets its grace.
			if s.sched.Stats().Admitted == 0 {
				break
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	s.cancelQueries()
	s.wg.Wait()
	// Every gate run has finished; release the transition log handle so
	// the data dir is clean for the next process.
	s.registry.Close()
}

// Draining reports whether Drain has been initiated.
func (s *Server) Draining() bool { return s.draining.Load() }

// QueryOptions is the request-level slice of vnn.Options. Workers left at
// 0 receives the scheduler's fair share; an explicit value is honored
// as-is (fixed worker counts are what make answers bitwise reproducible
// across runs and against the CLI).
type QueryOptions struct {
	Tighten  bool `json:"tighten,omitempty"`
	Workers  int  `json:"workers,omitempty"`
	Parallel bool `json:"parallel,omitempty"`
	MaxNodes int  `json:"max_nodes,omitempty"`
}

// VerifyRequest is the POST /v1/verify body.
type VerifyRequest struct {
	// Network is the canonical network JSON (see vnn.MarshalNetwork).
	Network json.RawMessage `json:"network"`
	// Region selects a named case-study region or gives an explicit box.
	Region vnn.RegionSpec `json:"region"`
	// Properties is the batch to answer on the shared compilation.
	Properties []vnn.PropertySpec `json:"properties"`
	Options    QueryOptions       `json:"options"`
	// TimeoutMS bounds the whole query including any compile it triggers;
	// 0 falls back to the server's default. An expired budget yields
	// anytime results, not an error.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Wait false turns the call asynchronous: the response is 202 with
	// the job id for /v1/verify/{id} and its /events stream.
	Wait *bool `json:"wait,omitempty"`
}

// VerifyResponse is the verify answer: the shared wire Report plus
// service metadata. CompileMS is the build cost of the compiled artifact
// the query used, whether or not this request paid it (CacheHit says).
type VerifyResponse struct {
	ID          string  `json:"id"`
	Fingerprint string  `json:"fingerprint"`
	CacheHit    bool    `json:"cache_hit"`
	CompileMS   float64 `json:"compile_ms"`
	vnn.Report
}

// AcceptedResponse acknowledges an async query.
type AcceptedResponse struct {
	ID          string `json:"id"`
	Fingerprint string `json:"fingerprint,omitempty"`
	Status      string `json:"status"`
}

// FalsifyRequest is the POST /v1/falsify body.
type FalsifyRequest struct {
	Network  json.RawMessage `json:"network"`
	Region   vnn.RegionSpec  `json:"region"`
	Outputs  []int           `json:"outputs"`
	Restarts int             `json:"restarts,omitempty"`
	Steps    int             `json:"steps,omitempty"`
	Seed     int64           `json:"seed,omitempty"`
}

// FalsifyResponse reports the strongest violating input found.
type FalsifyResponse struct {
	Value       float64   `json:"value"`
	Best        []float64 `json:"best,omitempty"`
	Output      int       `json:"output"`
	Evaluations int       `json:"evaluations"`
}

// errDraining rejects new work once Drain has begun (503).
var errDraining = errors.New("server is draining")

// errorResponse is the JSON error envelope.
type errorResponse struct {
	Error string `json:"error"`
}

// parseWorkload is the one parser of the network, region and options
// every route that takes a network shares; it returns the workload and
// its fingerprint, the compile cache key. Routes check only their own.
func parseWorkload(network json.RawMessage, rs vnn.RegionSpec, o QueryOptions) (*inferWorkload, string, error) {
	if len(network) == 0 {
		return nil, "", fmt.Errorf("request needs a network")
	}
	net, err := vnn.UnmarshalNetwork(network)
	if err != nil {
		return nil, "", err
	}
	region, err := rs.Region()
	if err != nil {
		return nil, "", err
	}
	wl := &inferWorkload{net: net, region: region, compileOpts: vnn.Options{Tighten: o.Tighten, Workers: o.Workers}}
	fp, err := vnn.Fingerprint(net, region, wl.compileOpts)
	if err != nil {
		return nil, "", err
	}
	return wl, fp, nil
}

// solveJob is a prepared /v1/verify or /v1/analyze request: workload and
// envelope for handleSolve and runSolve, plus the route's counter bump
// (jobRun.counted), query (reporting its effort) and response.
type solveJob struct {
	*inferWorkload
	fingerprint string
	analyses    int // the root's "analyses" attribute; 0 (unset) for verify
	opts        QueryOptions
	timeoutMS   int
	wait        *bool

	count   func(err error)
	query   func(ctx context.Context, cn *vnn.CompiledNetwork) (effort, error)
	respond func(hdr VerifyResponse) any
}

// prepare parses a verify request: the shared workload, then every
// property, validated against the network.
func (s *Server) prepare(req *VerifyRequest) (*solveJob, error) {
	wl, fp, err := parseWorkload(req.Network, req.Region, req.Options)
	if err != nil {
		return nil, err
	}
	if len(req.Properties) == 0 {
		return nil, fmt.Errorf("request needs at least one property")
	}
	props := make([]vnn.Property, len(req.Properties))
	for i := range req.Properties {
		if props[i], err = req.Properties[i].Property(); err != nil {
			return nil, fmt.Errorf("property %d: %w", i, err)
		}
		if err := req.Properties[i].ValidateFor(wl.net); err != nil {
			return nil, fmt.Errorf("property %d: %w", i, err)
		}
	}
	var results []*vnn.Result
	return &solveJob{
		inferWorkload: wl, fingerprint: fp,
		opts: req.Options, timeoutMS: req.TimeoutMS, wait: req.Wait,
		count: func(error) { s.queries.Add(1) },
		query: func(ctx context.Context, cn *vnn.CompiledNetwork) (_ effort, err error) {
			results, err = vnn.Verify(ctx, cn, props...)
			return resultsEffort(results), err
		},
		respond: func(hdr VerifyResponse) any {
			hdr.Report = vnn.NewReport(wl.net, results)
			return &hdr
		},
	}, nil
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	s.handleSolve(w, r, "/v1/verify", s.obs.verifyLatency, &req, func() (*solveJob, error) { return s.prepare(&req) })
}

// handleSolve is the one front end of /v1/verify and /v1/analyze: decode
// into req, prepare (any client fault is a 400), admit, then a traced,
// tenant-accounted job whose body is runSolve.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request, route string, latency *obs.Histogram, req any, prepare func() (*solveJob, error)) {
	if !s.decodeRequest(w, r, req) {
		return
	}
	q, err := prepare()
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	jr, err := s.admitJob(q.fingerprint, q.wait != nil && !*q.wait)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	// The trace shares the job id, so the id every response (and 202
	// acknowledgment) echoes also addresses /debug/traces/{id}; an
	// inbound traceparent additionally enrolls it in the caller's
	// distributed trace.
	jr.tr = s.startTrace(r, route, jr.id)
	if q.analyses > 0 {
		jr.tr.Root().SetAttr("analyses", q.analyses)
	}
	jr.tn, jr.route, jr.latency = s.tenantFor(r), route, latency
	jr.timeout = time.Duration(q.timeoutMS) * time.Millisecond
	jr.workers = q.opts.Workers
	jr.counted = q.count
	s.serveJob(w, r, jr, AcceptedResponse{ID: jr.id, Fingerprint: q.fingerprint, Status: "running"}, statusFor,
		func(ctx context.Context, workers int) (any, error) { return s.runSolve(ctx, jr, q, workers) })
}

// runSolve is the one job body of /v1/verify and /v1/analyze. The
// trace's phase spans decompose the request: "queue" (admission wait,
// see runJob), "cache" (lookup, with a "compile" child on a miss),
// "solve" (the route's query, one child per property from the progress
// stream, with its nodes and LP pivots). The root's children never
// overlap, so their durations sum to at most the trace's wall time.
func (s *Server) runSolve(ctx context.Context, jr *jobRun, q *solveJob, workers int) (any, error) {
	root := jr.tr.Root()
	opts := q.compileOpts
	opts.Workers = workers
	cn, hit, err := s.compile(ctx, root, q.fingerprint, q.net, q.region, opts)
	if err != nil {
		return nil, err
	}
	opts.Parallel = q.opts.Parallel
	opts.MaxNodes = q.opts.MaxNodes
	solveSpan := root.Child("solve")
	ps := vnn.NewProgressSpans(solveSpan)
	opts.Progress = func(ev vnn.Event) {
		jr.publish(ev)
		ps.Observe(ev)
	}
	e, err := q.query(ctx, cn.WithOptions(opts))
	ps.Close()
	if err != nil {
		solveSpan.End()
		return nil, err
	}
	solveSpan.SetAttr("nodes", e.nodes)
	solveSpan.SetAttr("lp_pivots", e.pivots)
	solveSpan.End()
	s.countEffort(e)
	return q.respond(VerifyResponse{
		ID:          jr.id,
		Fingerprint: q.fingerprint,
		CacheHit:    hit,
		CompileMS:   float64(cn.CompileTime().Microseconds()) / 1e3,
	}), nil
}

// effort is the branch-and-bound work behind an answer: the nodes and LP
// pivots the solve span reports and /metrics accumulates.
type effort struct{ nodes, pivots int64 }

// resultsEffort is the effort behind property results.
func resultsEffort(results []*vnn.Result) (e effort) {
	for _, res := range results {
		e.nodes += int64(res.Stats.Nodes)
		e.pivots += int64(res.Stats.LPPivots)
	}
	return e
}

// findingsEffort is the effort behind a portfolio's findings: its
// property verifications and each quantization sweep's base and
// per-width results.
func findingsEffort(findings []*vnn.Finding) effort {
	var results []*vnn.Result
	for _, f := range findings {
		results = append(results, f.Verification...)
		if qs := f.QuantSweep; qs != nil {
			results = append(results, qs.Base...)
			for _, pt := range qs.Points {
				results = append(results, pt.Results...)
			}
		}
	}
	return resultsEffort(results)
}

// countEffort adds e to the /metrics nodes and lp_pivots counters. Every
// route counts effort before its request counter (see Metrics).
func (s *Server) countEffort(e effort) {
	s.nodes.Add(e.nodes)
	s.pivots.Add(e.pivots)
}

// compile is every request's path to a compiled network: the shared
// fingerprint-keyed cache, with a "cache" span (and its hit flag) under
// parent. A miss compiles under the server's lifetime context rather
// than the request's: a compile is shared work (other requests may be
// waiting on the same fingerprint), so one impatient client must not
// abort it — only server drain can. parent may be nil (untraced).
func (s *Server) compile(ctx context.Context, parent *obs.Span, fp string, net *vnn.Network, region *vnn.Region, opts vnn.Options) (*vnn.CompiledNetwork, bool, error) {
	sp := parent.Child("cache")
	cn, hit, err := s.cache.GetOrCompile(ctx, fp, func() (*vnn.CompiledNetwork, error) {
		return s.compileTraced(sp, net, region, opts)
	})
	sp.SetAttr("hit", hit)
	sp.End()
	return cn, hit, err
}

// compileTraced runs one actual compile: it observes vnnd_compile_seconds
// exactly once, and wraps vnn.Compile with a "compile" span under parent,
// attributing the pass to LP tightening vs MILP encoding from
// internal/verify's process-wide phase clocks. The deltas are read
// around this compile only; concurrent compiles in other requests can
// inflate them (they are attribution hints, not exact sub-timers), so
// each child is clamped to the span's own duration.
func (s *Server) compileTraced(parent *obs.Span, net *vnn.Network, region *vnn.Region, opts vnn.Options) (*vnn.CompiledNetwork, error) {
	sp := parent.Child("compile")
	t0, e0 := verify.TightenNanos(), verify.EncodeNanos()
	buildStart := time.Now()
	cn, err := vnn.Compile(s.queryCtx, net, region, opts)
	wall := time.Since(buildStart)
	clamp := func(d time.Duration) time.Duration {
		if d > wall {
			return wall
		}
		return d
	}
	sp.ChildTimed("tighten", clamp(time.Duration(verify.TightenNanos()-t0)))
	sp.ChildTimed("encode", clamp(time.Duration(verify.EncodeNanos()-e0)))
	sp.SetAttr("tighten_passes", verify.TightenPasses())
	sp.SetAttr("encode_passes", verify.EncodePasses())
	sp.End()
	s.obs.compileTime.Observe(int64(wall))
	return cn, err
}

// deadlineContext derives a request's working context: timeout, else
// Config.DefaultTimeout, else no deadline.
func (s *Server) deadlineContext(parent context.Context, timeout time.Duration) (context.Context, context.CancelFunc) {
	if timeout <= 0 {
		timeout = s.cfg.DefaultTimeout
	}
	if timeout > 0 {
		return context.WithTimeout(parent, timeout)
	}
	return context.WithCancel(parent)
}

func (s *Server) handleGetVerify(w http.ResponseWriter, r *http.Request) {
	jb := s.jobs.get(r.PathValue("id"))
	if jb == nil {
		writeError(w, http.StatusNotFound, "unknown query id")
		return
	}
	if !jb.finished() {
		writeJSON(w, http.StatusAccepted, AcceptedResponse{
			ID: jb.id, Fingerprint: jb.fingerprint, Status: "running",
		})
		return
	}
	resp, err := jb.result()
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// progressEvent is the SSE wire form of one vnn.Event. Analysis is the
// index of the emitting analysis within an /v1/analyze batch (always 0
// for /v1/verify jobs).
type progressEvent struct {
	Analysis  int      `json:"analysis"`
	Property  int      `json:"property"`
	Nodes     int      `json:"nodes"`
	Open      int      `json:"open"`
	Incumbent *float64 `json:"incumbent,omitempty"`
	Bound     float64  `json:"bound"`
	ElapsedMS float64  `json:"elapsed_ms"`
}

func toProgressEvent(ev vnn.Event) progressEvent {
	pe := progressEvent{
		Analysis:  ev.Analysis,
		Property:  ev.Property,
		Nodes:     ev.Nodes,
		Open:      ev.Open,
		Bound:     ev.Bound,
		ElapsedMS: float64(ev.Elapsed.Microseconds()) / 1e3,
	}
	if ev.HasIncumbent {
		inc := ev.Incumbent
		pe.Incumbent = &inc
	}
	return pe
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	jb := s.jobs.get(r.PathValue("id"))
	if jb == nil {
		writeError(w, http.StatusNotFound, "unknown query id")
		return
	}
	s.streamJob(w, r, jb)
}

// streamJob serves one job's SSE stream: replayed progress, live events,
// and the terminal result. Shared by the verify/analyze event routes and
// the model gate's /v1/models/{name}/events.
func (s *Server) streamJob(w http.ResponseWriter, r *http.Request, jb *job) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, "response writer cannot stream")
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	replay, live, unsubscribe := jb.subscribe()
	defer unsubscribe()

	status := "running"
	if jb.finished() {
		status = "done"
	}
	writeSSE(w, "job", AcceptedResponse{ID: jb.id, Fingerprint: jb.fingerprint, Status: status})
	for _, ev := range replay {
		writeSSE(w, "progress", toProgressEvent(ev))
	}
	fl.Flush()

	finish := func() {
		resp, err := jb.result()
		if err != nil {
			writeSSE(w, "error", errorResponse{Error: err.Error()})
		} else {
			writeSSE(w, "result", resp)
		}
		fl.Flush()
	}
	for {
		select {
		case ev := <-live:
			writeSSE(w, "progress", toProgressEvent(ev))
			fl.Flush()
		case <-jb.done:
			// Flush any events that raced with completion, then close
			// with the terminal result.
			for {
				select {
				case ev := <-live:
					writeSSE(w, "progress", toProgressEvent(ev))
				default:
					finish()
					return
				}
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleFalsify(w http.ResponseWriter, r *http.Request) {
	var req FalsifyRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	wl, fp, err := parseWorkload(req.Network, req.Region, QueryOptions{})
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Bound the work a single request can demand; the endpoint is a cheap
	// pre-pass, not an open-ended compute API.
	if req.Restarts < 0 || req.Restarts > maxFalsifyRestarts || req.Steps < 0 || req.Steps > maxFalsifySteps {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("restarts must be in [0, %d] and steps in [0, %d]", maxFalsifyRestarts, maxFalsifySteps))
		return
	}
	if len(req.Outputs) == 0 {
		writeError(w, http.StatusBadRequest, "request needs at least one output index")
		return
	}
	for _, o := range req.Outputs {
		if o < 0 || o >= wl.net.OutputDim() {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("output %d of %d", o, wl.net.OutputDim()))
			return
		}
	}

	qctx, cancel := context.WithCancel(r.Context())
	defer cancel()
	defer context.AfterFunc(s.queryCtx, cancel)() // drain interrupts the attack

	start := time.Now()
	tr := s.startTrace(r, "/v1/falsify", "")
	tr.Root().SetAttr("fingerprint", fp)
	tn := s.tenantFor(r)
	defer observeSince(s.obs.falsifyLatency, start)
	defer func() { tn.Route("/v1/falsify").Count(time.Since(start)) }()
	defer tr.Finish()
	queueSpan := tr.Root().Child("queue")
	var resp *FalsifyResponse
	err = s.sched.Run(qctx, tn, func(ctx context.Context, _ int) error {
		queueSpan.End()
		runSpan := tr.Root().Child("falsify")
		defer runSpan.End()
		fr, err := vnn.FalsifyCtx(ctx, wl.net, wl.region, req.Outputs, vnn.FalsifyOptions{
			Restarts: req.Restarts,
			Steps:    req.Steps,
			Seed:     req.Seed,
		})
		if err != nil {
			return err
		}
		resp = &FalsifyResponse{
			Value:       fr.Value,
			Best:        fr.Best,
			Output:      fr.Output,
			Evaluations: fr.Evaluations,
		}
		return nil
	})
	queueSpan.End()
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	s.falsifications.Add(1)
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	status := "ok"
	if s.draining.Load() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    status,
		"uptime_ms": msSince(s.start),
		"build":     Build(),
	})
}

// handleMetrics serves the metrics snapshot: JSON by default (the
// format every existing consumer parses), Prometheus text exposition
// when the scraper negotiates it (Accept: text/plain or
// ?format=prometheus — see prom.go).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if wantsProm(r) {
		s.writeProm(w)
		return
	}
	writeJSON(w, http.StatusOK, s.Metrics())
}

// statusFor maps a run-stage error to its HTTP status: saturation to 429,
// an expired budget that never got to run to 504, drain/disconnect to
// 503, and anything else to 500 — by this point the request has passed
// validation (prepare rejects malformed inputs with 400 directly), so a
// failure here is the server's inability to answer, not the client's
// fault.
func statusFor(err error) int {
	switch {
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// decodeRequest is the prologue of every route that starts work: 503
// once the server drains, else the body strictly decoded into v (400 if
// malformed). It reports whether the handler goes on.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request, v any) bool {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errDraining.Error())
		return false
	}
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, v); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return false
	}
	return true
}

// decodeJSON strictly decodes a bounded request body into v.
func decodeJSON(w http.ResponseWriter, r *http.Request, maxBytes int64, v any) error {
	r.Body = http.MaxBytesReader(w, r.Body, maxBytes)
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("decode request: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

// writeSSE emits one server-sent event with a JSON payload.
func writeSSE(w io.Writer, event string, payload any) {
	data, err := json.Marshal(payload)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1e3
}
