// POST /v1/analyze: the dependability portfolio served over HTTP. One
// request compiles (or cache-hits) a network against a region and runs
// any mix of analyses — property verification, structural coverage,
// traceability, quantization sweeps, data validation, falsification —
// through vnn.Analyze on the shared compiled artifact. Quantization
// sweeps route their per-width recompiles through the same
// fingerprint-keyed compile cache as everything else, so N concurrent
// identical sweeps still perform exactly one compile per bit-width.

package vnnserver

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"repro/pkg/vnn"
)

// Per-request work caps. Unlike property verification — whose budget is
// the request timeout and whose anytime contract makes interruption
// useful — these analyses do open-ended iteration work, so the service
// bounds what one request can demand up front (the same hardening the
// falsify endpoint has always had).
const (
	// maxFalsifyRestarts and maxFalsifySteps bound PGD work per request,
	// for /v1/falsify and falsify-kind analyses alike.
	maxFalsifyRestarts = 1024
	maxFalsifySteps    = 10000
	// maxCoverageTests bounds one coverage analysis's sampling budget.
	maxCoverageTests = 1 << 20
	// maxSweepWidths bounds one quant sweep's ladder length (the full
	// supported range is only [2, 16] wide).
	maxSweepWidths = 32
)

// AnalyzeRequest is the POST /v1/analyze body.
type AnalyzeRequest struct {
	// Network is the canonical network JSON (see vnn.MarshalNetwork).
	Network json.RawMessage `json:"network"`
	// Region selects a named case-study region or gives an explicit box.
	Region vnn.RegionSpec `json:"region"`
	// Analyses is the portfolio batch to run on the shared compilation.
	Analyses []vnn.AnalysisSpec `json:"analyses"`
	Options  QueryOptions       `json:"options"`
	// TimeoutMS bounds the whole batch including any compiles it
	// triggers; 0 falls back to the server's default. An expired budget
	// yields anytime findings where the analysis supports them.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Wait false turns the call asynchronous: 202 plus a job id for
	// GET /v1/analyze/{id} and its /events stream.
	Wait *bool `json:"wait,omitempty"`
}

// AnalyzeResponse is the analyze answer: the shared wire Report (findings
// under "analyses", verification results also flattened into "results")
// plus service metadata about the base compile.
type AnalyzeResponse struct {
	ID          string  `json:"id"`
	Fingerprint string  `json:"fingerprint"`
	CacheHit    bool    `json:"cache_hit"`
	CompileMS   float64 `json:"compile_ms"`
	vnn.Report
}

// preparedAnalysis is a parsed, validated analyze request.
type preparedAnalysis struct {
	net         *vnn.Network
	region      *vnn.Region
	analyses    []vnn.Analysis
	kinds       []string
	fingerprint string
	compileOpts vnn.Options
}

// prepareAnalyze parses the request into engine values, validates every
// analysis against the network, and fingerprints the base compile
// workload. Everything that can be the client's fault is rejected here.
func (s *Server) prepareAnalyze(req *AnalyzeRequest) (*preparedAnalysis, error) {
	if len(req.Network) == 0 {
		return nil, fmt.Errorf("request needs a network")
	}
	net, err := vnn.UnmarshalNetwork(req.Network)
	if err != nil {
		return nil, err
	}
	region, err := req.Region.Region()
	if err != nil {
		return nil, err
	}
	if len(req.Analyses) == 0 {
		return nil, fmt.Errorf("request needs at least one analysis")
	}
	analyses := make([]vnn.Analysis, len(req.Analyses))
	kinds := make([]string, len(req.Analyses))
	for i := range req.Analyses {
		if analyses[i], err = req.Analyses[i].Analysis(); err != nil {
			return nil, fmt.Errorf("analysis %d: %w", i, err)
		}
		if err := req.Analyses[i].ValidateFor(net); err != nil {
			return nil, fmt.Errorf("analysis %d: %w", i, err)
		}
		if err := capAnalysisWork(&req.Analyses[i]); err != nil {
			return nil, fmt.Errorf("analysis %d: %w", i, err)
		}
		kinds[i] = analyses[i].Kind()
	}
	compileOpts := vnn.Options{Tighten: req.Options.Tighten, Workers: req.Options.Workers}
	fp, err := vnn.Fingerprint(net, region, compileOpts)
	if err != nil {
		return nil, err
	}
	return &preparedAnalysis{
		net:         net,
		region:      region,
		analyses:    analyses,
		kinds:       kinds,
		fingerprint: fp,
		compileOpts: compileOpts,
	}, nil
}

// capAnalysisWork enforces the service's per-request work bounds on one
// analysis spec (see the max* constants).
func capAnalysisWork(spec *vnn.AnalysisSpec) error {
	switch spec.Kind {
	case vnn.KindFalsify:
		if spec.Restarts > maxFalsifyRestarts || spec.Steps > maxFalsifySteps {
			return fmt.Errorf("restarts must be in [0, %d] and steps in [0, %d]",
				maxFalsifyRestarts, maxFalsifySteps)
		}
	case vnn.KindCoverage:
		if spec.MaxTests > maxCoverageTests {
			return fmt.Errorf("max_tests must be at most %d", maxCoverageTests)
		}
	case vnn.KindQuantSweep:
		if len(spec.Bits) > maxSweepWidths {
			return fmt.Errorf("a sweep may request at most %d bit-widths", maxSweepWidths)
		}
	}
	return nil
}

func (s *Server) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errDraining.Error())
		return
	}
	var req AnalyzeRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	q, err := s.prepareAnalyze(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	jr, err := s.admitJob(q.fingerprint, req.Wait != nil && !*req.Wait)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	// Trace id = job id, same as /v1/verify (see handleVerify).
	jr.tr = s.startTrace(r, "/v1/analyze", jr.id)
	jr.tr.Root().SetAttr("fingerprint", q.fingerprint)
	jr.tr.Root().SetAttr("analyses", len(q.analyses))
	jr.tn, jr.route, jr.latency = s.tenantFor(r), "/v1/analyze", s.obs.analyzeLatency
	jr.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	jr.counted = func(err error) {
		s.analyzes.Add(1)
		if err == nil {
			// Per-kind accounting happens once per completed batch so the
			// counters mean "analyses served", not "analyses attempted".
			for _, kind := range q.kinds {
				s.countAnalysis(kind)
			}
		}
	}
	s.serveJob(w, r, jr, AcceptedResponse{ID: jr.id, Fingerprint: q.fingerprint, Status: "running"}, statusFor,
		func(ctx context.Context, fairWorkers int) (any, error) {
			return s.runAnalyze(ctx, jr, q, &req, fairWorkers)
		})
}

// runAnalyze is the analyze job's body. The base compile — and every
// quantized recompile a QuantSweep performs — goes through the shared
// compile cache (see compile).
func (s *Server) runAnalyze(ctx context.Context, jr *jobRun, q *preparedAnalysis, req *AnalyzeRequest, fairWorkers int) (*AnalyzeResponse, error) {
	root := jr.tr.Root()
	opts := q.compileOpts
	if opts.Workers == 0 {
		opts.Workers = fairWorkers
	}
	cn, hit, err := s.compile(ctx, root, q.fingerprint, q.net, q.region, opts)
	if err != nil {
		return nil, err
	}
	qopts := opts
	qopts.Parallel = req.Options.Parallel
	qopts.MaxNodes = req.Options.MaxNodes
	// The solve span covers the whole portfolio; each analysis that
	// streams solver progress contributes per-property children with
	// their analysis index attributed (see vnn.ProgressSpans).
	solveSpan := root.Child("solve")
	ps := vnn.NewProgressSpans(solveSpan)
	qopts.Progress = func(ev vnn.Event) {
		jr.publish(ev)
		ps.Observe(ev)
	}
	for _, a := range q.analyses {
		if qs, ok := a.(*vnn.QuantSweep); ok {
			qs.Compile = s.cachedCompile
		}
	}
	findings, err := vnn.Analyze(ctx, cn.WithOptions(qopts), q.analyses...)
	ps.Close()
	if err != nil {
		solveSpan.End()
		return nil, err
	}
	var nodes, pivots int64
	for _, f := range findings {
		for _, res := range f.Verification {
			nodes += int64(res.Stats.Nodes)
			pivots += int64(res.Stats.LPPivots)
		}
		if f.QuantSweep != nil {
			for _, res := range f.QuantSweep.Base {
				nodes += int64(res.Stats.Nodes)
				pivots += int64(res.Stats.LPPivots)
			}
			for _, pt := range f.QuantSweep.Points {
				for _, res := range pt.Results {
					nodes += int64(res.Stats.Nodes)
					pivots += int64(res.Stats.LPPivots)
				}
			}
		}
	}
	s.nodes.Add(nodes)
	s.pivots.Add(pivots)
	return &AnalyzeResponse{
		ID:          jr.id,
		Fingerprint: q.fingerprint,
		CacheHit:    hit,
		CompileMS:   float64(cn.CompileTime().Microseconds()) / 1e3,
		Report:      vnn.NewAnalysisReport(q.net, findings),
	}, nil
}

// cachedCompile is the CompileFunc the server injects into quantization
// sweeps: one compile per distinct quantized model through the shared
// cache, keyed on the fingerprint the sweep already computed for its
// finding.
func (s *Server) cachedCompile(ctx context.Context, fp string, net *vnn.Network, region *vnn.Region, opts vnn.Options) (*vnn.CompiledNetwork, error) {
	cn, _, err := s.compile(ctx, nil, fp, net, region, vnn.Options{Tighten: opts.Tighten, Workers: opts.Workers})
	return cn, err
}
