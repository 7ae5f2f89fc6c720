// The verified-rollout HTTP surface: /v1/models and friends, backed by
// pkg/vnnregistry. Submitting a version runs its certification gate
// asynchronously through the same admission scheduler and job registry
// as /v1/verify — the gate IS a portfolio batch, so it queues, streams
// SSE progress, and traces exactly like one (trace id = job id, "gate"
// root with per-analysis children). Serving integration lives in
// infer.go (?model= resolution); readiness in handleReadyz below.

package vnnserver

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"time"

	"repro/pkg/vnn"
	"repro/pkg/vnnregistry"
)

// modelNameRE bounds model names to a DNS-ish charset: they appear in
// URLs, metric labels and file-backed snapshots.
var modelNameRE = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]{0,63}$`)

// ModelSubmitRequest is the POST /v1/models body: a named model version
// plus the gate it must pass.
type ModelSubmitRequest struct {
	// Model names the rollout target; versions are numbered per model in
	// submission order.
	Model string `json:"model"`
	// Network is the canonical network JSON (see vnn.MarshalNetwork).
	Network json.RawMessage `json:"network"`
	// Region is the operational design domain the version is certified
	// over.
	Region vnn.RegionSpec `json:"region"`
	// Options affect the serving compile (and are part of the
	// fingerprint), exactly as for /v1/verify.
	Options QueryOptions `json:"options"`
	// Monitor, when present, builds the version's serving monitor; every
	// /v1/infer?model= request through this version then gets per-input
	// verdicts, counted per version in /metrics.
	Monitor *InferMonitorSpec `json:"monitor,omitempty"`
	// Gate overrides the server's default gate (-gate). With neither,
	// the version is admitted without analysis — recorded as ungated.
	Gate *vnn.GateSpec `json:"gate,omitempty"`
	// TimeoutMS bounds the gate run; 0 falls back to the gate's own
	// timeout_ms, then the server default.
	TimeoutMS int `json:"timeout_ms,omitempty"`
	// Wait true runs the gate synchronously. The default is async — a
	// 202 with the gate job id for /v1/models/{name}/events — because
	// gates run real verification workloads.
	Wait *bool `json:"wait,omitempty"`
}

// ModelSubmitResponse answers submit (terminal state), promote, rollback
// and the SSE result event: the version document plus, for completed gate
// runs, the portfolio report behind the decision.
type ModelSubmitResponse struct {
	// ID is the gate job id: poll GET /v1/models/{name}?version=N or
	// stream /v1/models/{name}/events, and fetch /debug/traces/{id}.
	ID string `json:"id"`
	vnn.ModelVersionJSON
	// Report carries the gate's findings (shared wire schema).
	Report *vnn.Report `json:"report,omitempty"`
}

// ModelPromoteRequest is the POST /v1/models/{name}/promote body.
// canary_percent in [1, 99] starts (or resizes) a canary; omitted, 0 or
// 100 cuts the version fully over. version 0 targets the newest
// admitted-or-canary version.
type ModelPromoteRequest struct {
	Version       int  `json:"version,omitempty"`
	CanaryPercent *int `json:"canary_percent,omitempty"`
}

// ModelsResponse is the GET /v1/models listing.
type ModelsResponse struct {
	Models []vnnregistry.ModelDoc `json:"models"`
}

// Registry exposes the rollout registry (tests, embedding hosts).
func (s *Server) Registry() *vnnregistry.Registry { return s.registry }

// registryStatus maps registry errors onto HTTP statuses: not-ready to
// 503 (readiness, not failure), unknown names to 404, lifecycle misuse
// to 409 — then the shared statusFor rules.
func registryStatus(err error) int {
	switch {
	case errors.Is(err, vnnregistry.ErrNotReady):
		return http.StatusServiceUnavailable
	case errors.Is(err, vnnregistry.ErrUnknownModel), errors.Is(err, vnnregistry.ErrUnknownVersion):
		return http.StatusNotFound
	case errors.Is(err, vnnregistry.ErrNoServing), errors.Is(err, vnnregistry.ErrBadTransition):
		return http.StatusConflict
	default:
		return statusFor(err)
	}
}

// registryCompile is the CompileFunc the server injects into the
// registry: the shared compile path (a gate compile is shared work —
// /v1/verify requests for the same fingerprint hit it). Successful
// compiles also prime the by-fingerprint infer workload cache, so a
// version's artifact is immediately servable via plain fingerprint
// requests and exportable to fleet peers.
func (s *Server) registryCompile(ctx context.Context, fp string, net *vnn.Network, region *vnn.Region, opts vnn.Options) (*vnn.CompiledNetwork, bool, error) {
	cn, hit, err := s.compile(ctx, nil, fp, net, region, opts)
	if err == nil {
		s.rememberWorkload(fp, &inferWorkload{net: net, region: region, compileOpts: opts})
	}
	return cn, hit, err
}

// buildMonitor is every monitor build's path, from /v1/infer and from
// registry gates alike: the monitor cache under its build-workload
// fingerprint wfp, so a version's serving monitor is also reusable by
// monitor_fingerprint requests and fleet replication. Only actual builds
// feed the histogram; hits are cache waits.
func (s *Server) buildMonitor(ctx context.Context, wfp string, cn *vnn.CompiledNetwork, data [][]float64, opts vnn.MonitorOptions) (*vnn.Monitor, bool, error) {
	buildStart := time.Now()
	mon, hit, err := s.monitors.getOrLoad(ctx, wfp, func() (*vnn.Monitor, error) {
		return vnn.BuildMonitor(cn, data, opts)
	})
	if !hit {
		observeSince(s.obs.monitorBuild, buildStart)
	}
	return mon, hit, err
}

// prepareModelSubmit parses a submission: the model name, the shared
// workload, then the gate (against the network, with the same
// per-analysis work caps as /v1/analyze) and the monitor spec.
func (s *Server) prepareModelSubmit(req *ModelSubmitRequest) (*vnnregistry.Submission, error) {
	if !modelNameRE.MatchString(req.Model) {
		return nil, fmt.Errorf("model name must match %s", modelNameRE)
	}
	wl, fp, err := parseWorkload(req.Network, req.Region, req.Options)
	if err != nil {
		return nil, err
	}
	gate := req.Gate
	if gate == nil {
		gate = s.cfg.DefaultGate
	}
	if gate != nil {
		if err := gate.ValidateFor(wl.net); err != nil {
			return nil, err
		}
		for i := range gate.Analyses {
			if err := capAnalysisWork(&gate.Analyses[i]); err != nil {
				return nil, fmt.Errorf("gate analysis %d: %w", i, err)
			}
		}
	}
	sub := &vnnregistry.Submission{
		Model:       req.Model,
		NetworkJSON: req.Network,
		Net:         wl.net,
		Region:      wl.region,
		RegionSpec:  req.Region,
		Fingerprint: fp,
		Tighten:     req.Options.Tighten,
		Workers:     req.Options.Workers,
		Gate:        gate,
	}
	if m := req.Monitor; m != nil {
		if sub.MonitorOpts, err = m.validate(wl.net); err != nil {
			return nil, err
		}
		sub.MonitorData = m.Data
	}
	return sub, nil
}

func (s *Server) handleModelSubmit(w http.ResponseWriter, r *http.Request) {
	var req ModelSubmitRequest
	if !s.decodeRequest(w, r, &req) {
		return
	}
	sub, err := s.prepareModelSubmit(&req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	// Submission is a registry mutation: it needs a recovered registry
	// even before admission.
	if !s.registry.Ready() {
		writeError(w, http.StatusServiceUnavailable, s.registry.ReadyReason())
		return
	}
	// The gate defaults to asynchronous — it runs real verification
	// workloads — but is admitted at submit time like every job.
	jr, err := s.admitJob(sub.Fingerprint, req.Wait == nil || !*req.Wait)
	if err != nil {
		writeError(w, statusFor(err), err.Error())
		return
	}
	v, err := s.registry.Submit(*sub)
	if err != nil {
		// Undo the admission: the gate run that would release it will
		// never start.
		s.sched.cancelAdmitted()
		if jr.async {
			s.wg.Done()
		}
		jr.finish(nil, err)
		writeError(w, registryStatus(err), err.Error())
		return
	}
	s.registry.SetGateJob(v, jr.id)
	jr.tr = s.obs.rec.Start("gate", jr.id)
	jr.tr.Root().SetAttr("model", v.Model())
	jr.tr.Root().SetAttr("version", v.Seq())
	jr.latency = s.obs.gateLatency
	jr.workers = req.Options.Workers
	jr.timeout = time.Duration(req.TimeoutMS) * time.Millisecond
	if jr.timeout <= 0 && sub.Gate != nil {
		jr.timeout = time.Duration(sub.Gate.TimeoutMS) * time.Millisecond
	}
	accepted := ModelSubmitResponse{ID: jr.id, ModelVersionJSON: s.registry.Doc(v)}
	s.serveJob(w, r, jr, accepted, registryStatus, func(ctx context.Context, workers int) (any, error) {
		return s.runModelGate(ctx, jr, v, &req, workers)
	})
}

// runModelGate is the gate job's body: one version's admission gate with
// the job's worker count and SSE progress through the job. Its solver
// effort counts in /metrics nodes and lp_pivots like any other job's.
// The lifecycle decision itself (admitted/rejected, persistence) belongs
// to the registry.
func (s *Server) runModelGate(ctx context.Context, jr *jobRun, v *vnnregistry.Version, req *ModelSubmitRequest, workers int) (*ModelSubmitResponse, error) {
	opts := vnn.Options{Workers: workers, Parallel: req.Options.Parallel, MaxNodes: req.Options.MaxNodes}
	opts.Progress = func(ev vnn.Event) { jr.publish(ev) }
	res, err := s.registry.RunGate(ctx, v, vnnregistry.GateRunOptions{Opts: opts, Span: jr.tr.Root()})
	if err != nil {
		return nil, err
	}
	s.countEffort(findingsEffort(res.Findings))
	resp := &ModelSubmitResponse{ID: jr.id, ModelVersionJSON: res.Doc}
	if len(res.Findings) > 0 {
		rep := vnn.NewAnalysisReport(nil, res.Findings)
		resp.Report = &rep
	}
	return resp, nil
}

func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, ModelsResponse{Models: s.registry.Models()})
}

func (s *Server) handleModel(w http.ResponseWriter, r *http.Request) {
	doc, err := s.registry.Model(r.PathValue("name"))
	if err != nil {
		writeError(w, registryStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// handleModelEvents streams a version's gate run over SSE — the same
// job stream as /v1/verify/{id}/events, addressed by model name (and
// optional ?version=N, defaulting to the newest version).
func (s *Server) handleModelEvents(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	seq := 0
	if qv := r.URL.Query().Get("version"); qv != "" {
		n, err := strconv.Atoi(qv)
		if err != nil || n < 1 {
			writeError(w, http.StatusBadRequest, "version must be a positive integer")
			return
		}
		seq = n
	}
	if seq == 0 {
		doc, err := s.registry.Model(name)
		if err != nil {
			writeError(w, registryStatus(err), err.Error())
			return
		}
		seq = len(doc.Versions)
	}
	jobID, err := s.registry.GateJob(name, seq)
	if err != nil {
		writeError(w, registryStatus(err), err.Error())
		return
	}
	jb := s.jobs.get(jobID)
	if jb == nil {
		writeError(w, http.StatusNotFound, "gate job expired from the registry")
		return
	}
	s.streamJob(w, r, jb)
}

func (s *Server) handleModelPromote(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errDraining.Error())
		return
	}
	var req ModelPromoteRequest
	if err := decodeJSON(w, r, s.cfg.MaxBodyBytes, &req); err != nil && !errors.Is(err, io.EOF) {
		// An empty body is a plain full promotion.
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	pct := 100
	if req.CanaryPercent != nil {
		pct = *req.CanaryPercent
	}
	doc, err := s.registry.Promote(r.PathValue("name"), req.Version, pct)
	if err != nil {
		writeError(w, registryStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ModelSubmitResponse{ModelVersionJSON: doc})
}

func (s *Server) handleModelRollback(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, errDraining.Error())
		return
	}
	doc, err := s.registry.Rollback(r.PathValue("name"))
	if err != nil {
		writeError(w, registryStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, ModelSubmitResponse{ModelVersionJSON: doc})
}

// handleReadyz is the readiness half of the health split: 503 while the
// server drains or before registry recovery completes, 200 once the node
// should receive traffic. Liveness stays on /healthz, which answers 200
// throughout — a draining or recovering process is alive, just not ready.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": "draining"})
		return
	}
	if reason := s.registry.ReadyReason(); reason != "" {
		writeJSON(w, http.StatusServiceUnavailable, map[string]any{"ready": false, "reason": reason})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"ready": true})
}
