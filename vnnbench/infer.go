package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bounds"
	"repro/internal/highway"
	"repro/internal/train"
	"repro/pkg/vnn"
	"repro/pkg/vnnserver"
)

// monitorGamma is the Hamming relaxation of every benchmarked monitor.
const monitorGamma = 1

// fullBox is the explicit region of the inference workloads: every
// normalized feature over its whole [0, 1] domain.
func fullBox() [][2]float64 {
	box := make([][2]float64, highway.FeatureDim)
	for i := range box {
		box[i] = [2]float64{0, 1}
	}
	return box
}

func inputsOf(data []train.Sample) [][]float64 {
	xs := make([][]float64, len(data))
	for i, s := range data {
		xs[i] = s.X
	}
	return xs
}

// scenes draws n batches of size batch: ¾ held-out simulator
// observations and ¼ highway.RandomFeatureVector draws, shuffled.
func scenes(heldOut [][]float64, n, batch int, rng *rand.Rand) [][][]float64 {
	out := make([][][]float64, n)
	for b := range out {
		xs := make([][]float64, batch)
		for i := range xs {
			if i < batch*3/4 {
				xs[i] = heldOut[rng.Intn(len(heldOut))]
			} else {
				xs[i] = highway.RandomFeatureVector(rng)
			}
		}
		rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
		out[b] = xs
	}
	return out
}

// inferAnswer is decoded with encoding/json into plain slices,
// independently of the server's FloatMatrix codec.
type inferAnswer struct {
	Fingerprint        string      `json:"fingerprint"`
	CacheHit           bool        `json:"cache_hit"`
	MonitorFingerprint string      `json:"monitor_fingerprint"`
	MonitorCacheHit    bool        `json:"monitor_cache_hit"`
	Outputs            [][]float64 `json:"outputs"`
	Verdicts           []struct {
		OK       bool `json:"ok"`
		Layer    int  `json:"layer"`
		Distance int  `json:"distance"`
	} `json:"verdicts"`
	Flagged int `json:"flagged"`
}

// checkInfer decodes an infer answer and compares it with the in-process
// reference: outputs bit-identical to Network.ForwardInto, verdicts
// equal to Monitor.Check.
//
// The decoded answer is returned whenever the body parses, even when it
// is wrong.
func checkInfer(status int, body []byte, net *vnn.Network, mon *vnn.Monitor, xs [][]float64) (*inferAnswer, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("infer: status %d: %.200s", status, body)
	}
	var a inferAnswer
	if err := json.Unmarshal(body, &a); err != nil {
		return nil, fmt.Errorf("infer: decode: %w", err)
	}
	if len(a.Outputs) != len(xs) || len(a.Verdicts) != len(xs) {
		return &a, fmt.Errorf("infer: %d outputs and %d verdicts for %d inputs", len(a.Outputs), len(a.Verdicts), len(xs))
	}
	sc := net.NewScratch()
	want := make([]float64, net.OutputDim())
	flagged := 0
	for i, x := range xs {
		net.ForwardInto(want, sc, x)
		if len(a.Outputs[i]) != len(want) {
			return &a, fmt.Errorf("infer: output %d has %d values, want %d", i, len(a.Outputs[i]), len(want))
		}
		for j, v := range want {
			if math.Float64bits(v) != math.Float64bits(a.Outputs[i][j]) {
				return &a, fmt.Errorf("infer: output %d[%d] = %.17g, ForwardInto %.17g", i, j, a.Outputs[i][j], v)
			}
		}
		v, got := mon.Check(x), a.Verdicts[i]
		if got.OK != v.OK || got.Layer != v.Layer || got.Distance != v.Distance {
			return &a, fmt.Errorf("infer: verdict %d = %+v, Monitor.Check %v", i, got, v)
		}
		if !v.OK {
			flagged++
		}
	}
	if a.Flagged != flagged {
		return &a, fmt.Errorf("infer: flagged %d, Monitor.Check flags %d", a.Flagged, flagged)
	}
	return &a, nil
}

// layerWork is the computed forward cost of one batch through net: two
// flops per weight per input, and the bytes of inputs, outputs and
// parameters the kernels must touch at least once.
func layerWork(net *vnn.Network, batch int) (flop, byteCount float64) {
	for _, l := range net.Layers {
		in, out := float64(l.InDim()), float64(l.OutDim())
		flop += 2 * in * out * float64(batch)
		byteCount += 8 * (in*out + out)
	}
	byteCount += 8 * float64(batch*(net.InputDim()+net.OutputDim()))
	return flop, byteCount
}

// ---- infer-warm ----

type warmState struct {
	net      *vnn.Network
	mon      *vnn.Monitor
	upload   []byte   // the warm-up full-upload request
	bodies   [][]byte // by-fingerprint requests, one per batch
	golden   [][]byte // their checked responses
	hits     []bool   // golden[i] reports a cache hit
	datasetS float64
	fitS     float64
}

func prepareWarm(cfg config, rep *report, srv *server) (*warmState, error) {
	st := &warmState{}
	t0 := time.Now()
	data, err := dataset(1, cfg.episodes, cfg.steps)
	if err != nil {
		return nil, err
	}
	heldOut, err := dataset(1000+cfg.seed, 1, cfg.steps)
	if err != nil {
		return nil, err
	}
	st.datasetS = time.Since(t0).Seconds()
	t1 := time.Now()
	st.net = trainPredictor(data, cfg.widths[len(cfg.widths)-1], cfg.epochs).Net
	st.fitS = time.Since(t1).Seconds()

	monData := inputsOf(data)
	box := fullBox()
	region, err := (&vnn.RegionSpec{Box: box}).Region()
	if err != nil {
		return nil, err
	}
	cn, err := vnn.Compile(context.Background(), st.net, region, vnn.Options{})
	if err != nil {
		return nil, err
	}
	if st.mon, err = vnn.BuildMonitor(cn, monData, vnn.MonitorOptions{Gamma: monitorGamma}); err != nil {
		return nil, err
	}
	batches := scenes(inputsOf(heldOut), cfg.batches, cfg.batch, rand.New(rand.NewSource(cfg.seed)))
	raw, err := vnn.MarshalNetwork(st.net)
	if err != nil {
		return nil, err
	}
	st.upload, err = json.Marshal(vnnserver.InferRequest{
		Network: raw,
		Region:  vnn.RegionSpec{Box: box},
		Inputs:  batches[0],
		Monitor: &vnnserver.InferMonitorSpec{Data: monData, Gamma: monitorGamma},
	})
	if err != nil {
		return nil, err
	}
	status, body, err := srv.post("/v1/infer", st.upload)
	if err != nil {
		return nil, err
	}
	first, err := checkInfer(status, body, st.net, st.mon, batches[0])
	rep.check(err)
	if first == nil {
		return nil, fmt.Errorf("warm-up upload: %w", err)
	}
	fp, err := vnn.Fingerprint(st.net, region, vnn.Options{})
	if err != nil {
		return nil, err
	}
	if first.Fingerprint != fp || first.MonitorFingerprint != st.mon.Fingerprint() {
		return nil, fmt.Errorf("warm-up upload: fingerprints %s/%s, in-process %s/%s",
			first.Fingerprint, first.MonitorFingerprint, fp, st.mon.Fingerprint())
	}
	for _, xs := range batches {
		b, err := json.Marshal(vnnserver.InferRequest{Fingerprint: fp, MonitorFingerprint: first.MonitorFingerprint, Inputs: xs})
		if err != nil {
			return nil, err
		}
		status, body, err := srv.post("/v1/infer", b)
		if err != nil {
			return nil, err
		}
		a, err := checkInfer(status, body, st.net, st.mon, xs)
		rep.check(err)
		st.bodies = append(st.bodies, b)
		st.golden = append(st.golden, body)
		st.hits = append(st.hits, err == nil && (a.CacheHit || a.MonitorCacheHit))
	}
	return st, nil
}

// openStep is one fixed-rate phase of the open loop.
type openStep struct {
	rate    float64
	lat     []float64 // seconds from when each request was due
	late    []float64 // seconds the generator sent after the due time
	failed  int
	hits    int
	backlog int // requests due but unanswered when the schedule ended
}

// openLoop sends requests at a fixed rate for seconds, cycling through
// the warm bodies from *next, over conns workers. Each response must
// equal its checked golden response byte for byte.
func openLoop(srv *server, conns int, rate, seconds float64, st *warmState, next *int) openStep {
	n := max(1, int(rate*seconds))
	type job struct {
		k   int
		due time.Time
	}
	jobs := make(chan job, n) // sized to the number of sends: the generator never blocks
	var (
		mu        sync.Mutex
		wg        sync.WaitGroup
		completed atomic.Int64
		step      = openStep{rate: rate}
	)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				status, body, err := srv.post("/v1/infer", st.bodies[j.k])
				lat := time.Since(j.due).Seconds()
				completed.Add(1)
				ok := err == nil && status == http.StatusOK && bytes.Equal(body, st.golden[j.k])
				mu.Lock()
				step.lat = append(step.lat, lat)
				if !ok {
					step.failed++
				} else if st.hits[j.k] {
					step.hits++
				}
				mu.Unlock()
			}
		}()
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(float64(i) / rate * 1e9))
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		step.late = append(step.late, time.Since(due).Seconds())
		jobs <- job{k: *next % len(st.bodies), due: due}
		*next++
	}
	close(jobs)
	step.backlog = n - int(completed.Load())
	wg.Wait()
	return step
}

// passes reports whether a ladder step met the latency limit without
// failures or a growing backlog (more requests outstanding than the
// connections plus what the rate delivers within the limit).
func (s openStep) passes(cfg config) bool {
	allowed := max(2*cfg.conns, int(math.Ceil(s.rate*limitMS/1e3)))
	return len(s.lat) > 0 && s.failed == 0 && percentile99(s.lat) <= limitMS/1e3 && s.backlog <= allowed
}

// ladder finds max_rps: the highest rate of a geometric ladder, from
// the reference step up, whose step passes.
func ladder(cfg config, ref openStep, step func(rate float64) openStep) float64 {
	maxRPS := 0.0
	for s := ref; ; s = step(s.rate * cfg.growth) {
		pass := s.passes(cfg)
		fmt.Printf("infer-warm: ladder %.1f req/s: n=%d p99 %.3fms backlog %d failed %d pass=%t\n",
			s.rate, len(s.lat), percentile99(s.lat)*1e3, s.backlog, s.failed, pass)
		if !pass {
			return maxRPS
		}
		maxRPS = s.rate
	}
}

func runInferWarm(cfg config) (*report, error) {
	rep := newReport()
	st, srv, setupS, err := repeatSetup(cfg, func(srv *server) (*warmState, error) { return prepareWarm(cfg, rep, srv) })
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	next := 0
	m0, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	// Half the measurement runs at the reference rate; the max_rps ladder
	// after it takes as long as its steps need. A traced run keeps only
	// the reference phase.
	restore := loadProcs()
	refSeconds := cfg.seconds / 2
	c0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	ref := openLoop(srv, cfg.conns, cfg.refRate, refSeconds, st, &next)
	c1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	m1, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	count := func(s openStep) {
		rep.attempted += len(s.lat)
		rep.failed += s.failed
	}
	count(ref)
	t := summarize(ref.lat)
	fmt.Printf("infer-warm: reference %g req/s for %gs: late-p99 %.3fms backlog %d failed %d\n",
		cfg.refRate, refSeconds, percentile99(ref.late)*1e3, ref.backlog, ref.failed)
	fmt.Printf("metric p50_ms = %v ms (at %g req/s, n=%d)\n", t.p50*1e3, cfg.refRate, t.n)
	fmt.Printf("metric %s_ms = %v ms (at %g req/s, n=%d)\n", t.tailName(), t.tail*1e3, cfg.refRate, t.n)
	rep.e2e["cpu_ms_per_req"] = (c1 - c0) * 1e3 / float64(len(ref.lat))
	if !cfg.trace {
		maxRPS := ladder(cfg, ref, func(rate float64) openStep {
			s := openLoop(srv, cfg.conns, rate, max(1, float64(cfg.stepSamples)/rate), st, &next)
			count(s)
			return s
		})
		fmt.Printf("metric max_rps = %v 1/s (highest ladder rate with p99 <= %gms and no growing backlog)\n", maxRPS, limitMS)
	}
	restore()
	rss, err := srv.rssPeakMB()
	if err != nil {
		return nil, err
	}
	rep.e2e["setup_s"] = setupS
	rep.e2e["rss_peak_mb"] = rss
	if !cfg.trace {
		return rep, nil
	}

	l := rep.layer
	serverLayers(l, m0, m1, "/v1/infer")
	l["vnnserver.cache.hit_ratio"] = float64(ref.hits) / float64(max(1, len(ref.lat)))
	l["monitor.flagged_ratio"] = float64(m1.Infer.Flagged-m0.Infer.Flagged) / float64(max(1, m1.Infer.Inputs-m0.Infer.Inputs))
	l["monitor.patterns"] = float64(st.mon.PatternCount())
	l["highway.dataset_s"] = st.datasetS
	l["train.fit_s"] = st.fitS
	l["harness.gen_late_ms"] = percentile99(ref.late) * 1e3
	flop, by := layerWork(st.net, cfg.batch)
	l["linalg.flop_per_req"] = flop
	l["linalg.bytes_per_req"] = by
	fmt.Printf("linalg: computed from layer sizes, not measured: %g flop and %g bytes per %d-input request\n", flop, by, cfg.batch)
	var respBytes []int
	for _, g := range st.golden {
		respBytes = append(respBytes, len(g))
	}
	l["wire.resp_bytes"] = meanInt(respBytes)

	// The replay primes its artifacts from the warm-up upload untraced,
	// then traces the by-fingerprint bodies, the steady-state path, often
	// enough (512 requests) for the overhead ratio to rise above noise.
	var reqs [][]byte
	for len(reqs) < 512 {
		reqs = append(reqs, st.bodies...)
	}
	traced, err := replayInfer(st.upload, reqs, newRecorder(true), l)
	if err != nil {
		return nil, err
	}
	untraced, err := replayInfer(st.upload, reqs, newRecorder(false), nil)
	if err != nil {
		return nil, err
	}
	l["harness.trace_overhead"] = traced.wall / untraced.wall
	return rep, traced.rec.write(cfg.traceDir, fmt.Sprintf("infer-warm-seed%d.json", cfg.seed))
}

// inferReplay holds what the replayed requests built, as the server's
// caches hold it for later by-fingerprint requests.
type inferReplay struct {
	net  *vnn.Network
	mon  *vnn.Monitor
	bsc  *vnn.MonitorBatchScratch
	fsc  *vnn.ForwardScratch
	fp   string
	pats []int // patterns of every monitor built
}

// request replays one infer request through the public functions in
// handler order: decode; for a full upload unmarshal, fingerprint,
// bound propagation, compile and monitor build; then the forward batch,
// the monitor check and the response encode.
func (rp *inferReplay) request(rec *recorder, i int, body []byte) error {
	ctx := context.Background()
	root := rec.begin("request", i, -1)
	defer rec.end(root)
	var req vnnserver.InferRequest
	var err error
	if rec.do("wire.decode", i, root, func() { err = json.Unmarshal(body, &req) }); err != nil {
		return err
	}
	if len(req.Network) > 0 {
		var region *vnn.Region
		var cn *vnn.CompiledNetwork
		rec.do("vnn.unmarshal_network", i, root, func() {
			if rp.net, err = vnn.UnmarshalNetwork(req.Network); err == nil {
				region, err = req.Region.Region()
			}
		})
		if err != nil {
			return err
		}
		if rec.do("vnn.fingerprint", i, root, func() { rp.fp, err = vnn.Fingerprint(rp.net, region, vnn.Options{}) }); err != nil {
			return err
		}
		if rec.do("bounds.propagate", i, root, func() { _, err = bounds.Propagate(rp.net, region.Box) }); err != nil {
			return err
		}
		if rec.do("verify.compile", i, root, func() { cn, err = vnn.Compile(ctx, rp.net, region, vnn.Options{}) }); err != nil {
			return err
		}
		rec.do("monitor.build", i, root, func() {
			rp.mon, err = vnn.BuildMonitor(cn, req.Monitor.Data, vnn.MonitorOptions{Gamma: req.Monitor.Gamma})
		})
		if err != nil {
			return err
		}
		rp.pats = append(rp.pats, rp.mon.PatternCount())
		rp.bsc, rp.fsc = rp.mon.NewBatchScratch(), rp.net.NewScratch()
	} else if rp.mon == nil || req.Fingerprint != rp.fp || req.MonitorFingerprint != rp.mon.Fingerprint() {
		return fmt.Errorf("replay: request %d names an artifact the replay has not built", i)
	}
	xs := [][]float64(req.Inputs)
	outs := make([][]float64, len(xs))
	for j := range outs {
		outs[j] = make([]float64, rp.net.OutputDim())
	}
	verdicts := make([]vnn.MonitorVerdict, len(xs))
	rec.do("nn.forward_batch", i, root, func() { rp.net.ForwardBatchInto(outs, rp.fsc, xs) })
	rec.do("monitor.check_batch", i, root, func() { rp.mon.CheckBatchInto(outs, rp.bsc, xs, verdicts) })
	rec.do("wire.encode", i, root, func() {
		resp := vnnserver.InferResponse{Fingerprint: rp.fp, MonitorFingerprint: rp.mon.Fingerprint(), Outputs: outs}
		for _, v := range verdicts {
			resp.Verdicts = append(resp.Verdicts, vnnserver.VerdictJSON{OK: v.OK, Layer: v.Layer, Distance: v.Distance})
			if !v.OK {
				resp.Flagged++
			}
		}
		_, err = json.Marshal(resp)
	})
	return err
}

// replayInfer replays reqs, after prime (an upload whose artifacts they
// reuse) when set; prime is replayed untraced. With l non-nil it fills
// the layer metrics from the spans.
func replayInfer(prime []byte, reqs [][]byte, rec *recorder, l map[string]float64) (replayed, error) {
	rp := &inferReplay{}
	if prime != nil {
		if err := rp.request(newRecorder(false), -1, prime); err != nil {
			return replayed{}, err
		}
	}
	var reqSize []int
	t0 := time.Now()
	for i, body := range reqs {
		reqSize = append(reqSize, len(body))
		if err := rp.request(rec, i, body); err != nil {
			return replayed{}, err
		}
	}
	wall := time.Since(t0).Seconds()
	if l != nil {
		st := rec.selfTimes()
		for _, name := range []string{"wire.decode", "wire.encode", "vnn.unmarshal_network", "vnn.fingerprint", "bounds.propagate", "nn.forward_batch", "monitor.check_batch"} {
			l[name+"_us"] = meanUS(st, name)
		}
		l["verify.compile_ms"] = meanUS(st, "verify.compile") / 1e3
		l["monitor.build_ms"] = meanUS(st, "monitor.build") / 1e3
		l["wire.req_bytes"] = meanInt(reqSize)
		if _, ok := l["monitor.patterns"]; !ok {
			l["monitor.patterns"] = meanInt(rp.pats)
		}
	}
	return replayed{rec: rec, wall: wall}, nil
}

// ---- infer-onboard ----

type onboardState struct {
	box      []byte        // the explicit region box, JSON
	sets     [][][]float64 // monitor build sets
	setJSON  [][]byte
	inputs   [][][]float64 // request batches
	inJSON   [][]byte
	datasetS float64
}

// onboardModel is the never-seen network of request i.
func onboardModel(cfg config, i int) *vnn.Network {
	return vnn.NewPredictor(tableIIDepth, cfg.widths[len(cfg.widths)-1], 2, cfg.seed*1_000_000+int64(i)).Net
}

// onboardBody assembles request i's full-upload body from pre-encoded
// parts: the model, the region box, a batch and a monitor set.
func (st *onboardState) body(net []byte, i int) []byte {
	set, in := st.setJSON[i%len(st.setJSON)], st.inJSON[i%len(st.inJSON)]
	var b bytes.Buffer
	b.Grow(len(net) + len(set) + len(in) + len(st.box) + 128)
	b.WriteString(`{"network":`)
	b.Write(net)
	b.WriteString(`,"region":{"box":`)
	b.Write(st.box)
	b.WriteString(`},"inputs":`)
	b.Write(in)
	b.WriteString(`,"monitor":{"data":`)
	b.Write(set)
	fmt.Fprintf(&b, `,"gamma":%d}}`, monitorGamma)
	return b.Bytes()
}

// onboardSets and onboardBatches are how many distinct monitor sets and
// batches the onboarding requests cycle through (coprime, so the pairs
// vary).
const onboardSets, onboardBatches = 8, 7

func prepareOnboard(cfg config, srv *server) (*onboardState, error) {
	st := &onboardState{}
	t0 := time.Now()
	data, err := dataset(2000+cfg.seed, cfg.episodes, cfg.steps)
	if err != nil {
		return nil, err
	}
	st.datasetS = time.Since(t0).Seconds()
	xs := inputsOf(data)
	rng := rand.New(rand.NewSource(cfg.seed))
	for i := 0; i < onboardSets; i++ {
		set := make([][]float64, cfg.monitorRows)
		for j := range set {
			set[j] = xs[rng.Intn(len(xs))]
		}
		st.sets = append(st.sets, set)
	}
	st.inputs = scenes(xs, onboardBatches, cfg.batch, rng)
	enc := func(m [][]float64) ([]byte, error) { return vnnserver.FloatMatrix(m).MarshalJSON() }
	for _, s := range st.sets {
		b, err := enc(s)
		if err != nil {
			return nil, err
		}
		st.setJSON = append(st.setJSON, b)
	}
	for _, in := range st.inputs {
		b, err := enc(in)
		if err != nil {
			return nil, err
		}
		st.inJSON = append(st.inJSON, b)
	}
	if st.box, err = json.Marshal(fullBox()); err != nil {
		return nil, err
	}
	// Warm the connection with a model no measured request uses.
	raw, err := vnn.MarshalNetwork(onboardModel(cfg, -1))
	if err != nil {
		return nil, err
	}
	if status, body, err := srv.post("/v1/infer", st.body(raw, 0)); err != nil || status != http.StatusOK {
		return nil, fmt.Errorf("onboard warm-up: status %d err %v: %.200s", status, err, body)
	}
	return st, nil
}

// checkOnboard verifies request i's answer against an in-process
// compile and monitor build of the same model.
func checkOnboard(cfg config, st *onboardState, i int, net *vnn.Network, status int, body []byte) error {
	region, err := (&vnn.RegionSpec{Box: fullBox()}).Region()
	if err != nil {
		return err
	}
	cn, err := vnn.Compile(context.Background(), net, region, vnn.Options{})
	if err != nil {
		return err
	}
	mon, err := vnn.BuildMonitor(cn, st.sets[i%len(st.sets)], vnn.MonitorOptions{Gamma: monitorGamma})
	if err != nil {
		return err
	}
	a, err := checkInfer(status, body, net, mon, st.inputs[i%len(st.inputs)])
	if err != nil {
		return fmt.Errorf("model %d: %w", i, err)
	}
	fp, err := vnn.Fingerprint(net, region, vnn.Options{})
	if err != nil {
		return err
	}
	if a.Fingerprint != fp || a.MonitorFingerprint != mon.Fingerprint() || a.CacheHit || a.MonitorCacheHit {
		return fmt.Errorf("model %d: served as %s/%s hit=%t/%t, want new %s/%s", i, a.Fingerprint, a.MonitorFingerprint, a.CacheHit, a.MonitorCacheHit, fp, mon.Fingerprint())
	}
	return nil
}

type onboardResult struct {
	status int
	body   []byte
	err    error
}

func runInferOnboard(cfg config) (*report, error) {
	st, srv, setupS, err := repeatSetup(cfg, func(srv *server) (*onboardState, error) { return prepareOnboard(cfg, srv) })
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	rep := newReport()
	m0, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	seconds := cfg.seconds
	if cfg.trace {
		seconds /= 2
	}
	var (
		lat     []float64
		results []onboardResult
		sizes   []int
	)
	restore := loadProcs()
	c0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	for i := 0; time.Since(t0).Seconds() < seconds; i++ {
		raw, err := vnn.MarshalNetwork(onboardModel(cfg, i))
		if err != nil {
			return nil, err
		}
		body := st.body(raw, i)
		sizes = append(sizes, len(body))
		r0 := time.Now()
		status, resp, err := srv.post("/v1/infer", body)
		lat = append(lat, time.Since(r0).Seconds())
		results = append(results, onboardResult{status, resp, err})
	}
	wall := time.Since(t0).Seconds()
	c1, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	restore()
	m1, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	rss, err := srv.rssPeakMB()
	if err != nil {
		return nil, err
	}
	checkStart := time.Now()
	for i, r := range results {
		if r.err != nil {
			rep.check(r.err)
			continue
		}
		rep.check(checkOnboard(cfg, st, i, onboardModel(cfg, i), r.status, r.body))
	}
	t := summarize(lat)
	models := float64(len(results)) / wall
	fmt.Printf("infer-onboard: %d models in %.3fs (mean body %.0f bytes); checked in %.3fs\n", len(results), wall, meanInt(sizes), time.Since(checkStart).Seconds())
	fmt.Printf("metric models_per_s = %v 1/s\n", models)
	fmt.Printf("metric p50_ms = %v ms (n=%d)\n", t.p50*1e3, t.n)
	fmt.Printf("metric %s_ms = %v ms (n=%d)\n", t.tailName(), t.tail*1e3, t.n)
	rep.e2e["setup_s"] = setupS
	rep.e2e["rss_peak_mb"] = rss
	rep.e2e["cpu_ms_per_req"] = (c1 - c0) * 1e3 / float64(len(results))
	if !cfg.trace {
		return rep, nil
	}

	l := rep.layer
	serverLayers(l, m0, m1, "/v1/infer")
	l["vnnserver.cache.hit_ratio"] = float64(m1.Cache.Hits-m0.Cache.Hits) / float64(max(1, len(results)))
	l["monitor.flagged_ratio"] = float64(m1.Infer.Flagged-m0.Infer.Flagged) / float64(max(1, m1.Infer.Inputs-m0.Infer.Inputs))
	l["highway.dataset_s"] = st.datasetS
	l["verify.encode_passes"] = float64(m1.EncodePasses-m0.EncodePasses) / float64(max(1, len(results)))
	l["verify.tighten_passes"] = float64(m1.TightenPasses-m0.TightenPasses) / float64(max(1, len(results)))
	flop, by := layerWork(onboardModel(cfg, 0), cfg.batch)
	l["linalg.flop_per_req"] = flop
	l["linalg.bytes_per_req"] = by
	fmt.Printf("linalg: computed from layer sizes, not measured: %g flop and %g bytes per %d-input request\n", flop, by, cfg.batch)
	var respBytes []int
	for _, r := range results {
		respBytes = append(respBytes, len(r.body))
	}
	l["wire.resp_bytes"] = meanInt(respBytes)

	n := min(len(results), 64)
	reqs := make([][]byte, n)
	for i := range reqs {
		raw, err := vnn.MarshalNetwork(onboardModel(cfg, i))
		if err != nil {
			return nil, err
		}
		reqs[i] = st.body(raw, i)
	}
	traced, err := replayInfer(nil, reqs, newRecorder(true), l)
	if err != nil {
		return nil, err
	}
	untraced, err := replayInfer(nil, reqs, newRecorder(false), nil)
	if err != nil {
		return nil, err
	}
	l["harness.trace_overhead"] = traced.wall / untraced.wall
	return rep, traced.rec.write(cfg.traceDir, fmt.Sprintf("infer-onboard-seed%d.json", cfg.seed))
}
