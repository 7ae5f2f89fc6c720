// POST /v1/analyze: the dependability portfolio served over HTTP. One
// request compiles (or cache-hits) a network against a region and runs
// any mix of analyses — property verification, structural coverage,
// traceability, quantization sweeps, data validation, falsification —
// through vnn.Analyze on the shared compiled artifact. Quantization
// sweeps route their per-width recompiles through the same
// fingerprint-keyed compile cache as everything else, so N concurrent
// identical sweeps still perform exactly one compile per bit-width. The
// route shares /v1/verify's front end and job body (handleSolve,
// runSolve) and supplies only its counters, its query and its response.

package vnnserver

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"

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

// prepareAnalyze parses an analyze request: the shared workload, then
// every analysis, validated against the network and held to the
// service's work caps. Quantization sweeps get the cached compile path
// for their per-width recompiles.
func (s *Server) prepareAnalyze(req *AnalyzeRequest) (*solveJob, error) {
	wl, fp, err := parseWorkload(req.Network, req.Region, req.Options)
	if err != nil {
		return nil, err
	}
	if len(req.Analyses) == 0 {
		return nil, fmt.Errorf("request needs at least one analysis")
	}
	analyses := make([]vnn.Analysis, len(req.Analyses))
	for i := range req.Analyses {
		if analyses[i], err = req.Analyses[i].Analysis(); err != nil {
			return nil, fmt.Errorf("analysis %d: %w", i, err)
		}
		if err := req.Analyses[i].ValidateFor(wl.net); err != nil {
			return nil, fmt.Errorf("analysis %d: %w", i, err)
		}
		if err := capAnalysisWork(&req.Analyses[i]); err != nil {
			return nil, fmt.Errorf("analysis %d: %w", i, err)
		}
		if qs, ok := analyses[i].(*vnn.QuantSweep); ok {
			qs.Compile = s.cachedCompile
		}
	}
	var findings []*vnn.Finding
	return &solveJob{
		inferWorkload: wl, fingerprint: fp,
		analyses: len(analyses), opts: req.Options, timeoutMS: req.TimeoutMS, wait: req.Wait,
		count: func(err error) {
			s.analyzes.Add(1)
			if err == nil {
				// Per-kind accounting happens once per completed batch so
				// the counters mean "analyses served", not "analyses
				// attempted".
				s.analysisMu.Lock()
				for _, a := range analyses {
					s.analysisKinds[a.Kind()]++
				}
				s.analysisMu.Unlock()
			}
		},
		query: func(ctx context.Context, cn *vnn.CompiledNetwork) (_ effort, err error) {
			findings, err = vnn.Analyze(ctx, cn, analyses...)
			return findingsEffort(findings), err
		},
		respond: func(hdr VerifyResponse) any {
			hdr.Report = vnn.NewAnalysisReport(wl.net, findings)
			// The two responses share one shape; the route keeps its type.
			return (*AnalyzeResponse)(&hdr)
		},
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
	var req AnalyzeRequest
	s.handleSolve(w, r, "/v1/analyze", s.obs.analyzeLatency, &req, func() (*solveJob, error) { return s.prepareAnalyze(&req) })
}

// cachedCompile is the CompileFunc the server injects into quantization
// sweeps: one compile per distinct quantized model through the shared
// cache, keyed on the fingerprint the sweep already computed for its
// finding.
func (s *Server) cachedCompile(ctx context.Context, fp string, net *vnn.Network, region *vnn.Region, opts vnn.Options) (*vnn.CompiledNetwork, error) {
	cn, _, err := s.compile(ctx, nil, fp, net, region, vnn.Options{Tighten: opts.Tighten, Workers: opts.Workers})
	return cn, err
}
