package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"time"

	"repro/internal/bounds"
	"repro/pkg/vnn"
	"repro/pkg/vnnserver"
)

// verifyTol is the tolerance for Table II values and witness checks.
const verifyTol = 1e-9

type verifyState struct {
	nets           map[int]*vnn.Network // trained Table II networks by width
	datasetS, fitS float64
}

// verifyQuery is one Table II request: a max query per width, then the
// threshold proof on the widest network.
type verifyQuery struct {
	width int
	prove bool
	net   *vnn.Network // the permuted copy sent
	props []vnn.PropertySpec
	body  []byte
}

// roundStats are the exact effort counts of one Table II round.
type roundStats struct {
	nodes, pivots, binaries, stable     int
	solves, encodePasses, tightenPasses int64
}

func prepareVerify(cfg config, srv *server) (*verifyState, error) {
	st := &verifyState{nets: map[int]*vnn.Network{}}
	t0 := time.Now()
	data, err := dataset(1, cfg.episodes, cfg.steps)
	if err != nil {
		return nil, err
	}
	st.datasetS = time.Since(t0).Seconds()
	t1 := time.Now()
	for _, w := range cfg.widths {
		st.nets[w] = trainPredictor(data, w, cfg.epochs).Net
	}
	st.fitS = time.Since(t1).Seconds()
	_, err = srv.metrics() // opens the connection
	return st, err
}

// buildRound draws a fresh hidden-neuron permutation for every query of
// one round, so no query repeats a fingerprint the server has seen.
func buildRound(cfg config, st *verifyState, rng *rand.Rand) ([]verifyQuery, error) {
	muLat := vnn.MuLatOutputs(2)
	var qs []verifyQuery
	for _, w := range cfg.widths {
		qs = append(qs, verifyQuery{width: w, props: []vnn.PropertySpec{{Kind: "max", Outputs: muLat}}})
	}
	proof := verifyQuery{width: cfg.widths[len(cfg.widths)-1], prove: true}
	for _, o := range muLat {
		o, th := o, proofThreshold
		proof.props = append(proof.props, vnn.PropertySpec{Kind: "at_most", Output: &o, Threshold: &th})
	}
	qs = append(qs, proof)
	for i := range qs {
		qs[i].net = permuteHidden(st.nets[qs[i].width], rng)
		raw, err := vnn.MarshalNetwork(qs[i].net)
		if err != nil {
			return nil, err
		}
		qs[i].body, err = json.Marshal(vnnserver.VerifyRequest{
			Network:    raw,
			Region:     vnn.RegionSpec{Name: "left_occupied"},
			Properties: qs[i].props,
		})
		if err != nil {
			return nil, err
		}
	}
	return qs, nil
}

// checkVerify decodes a /v1/verify answer and checks it: every result
// exact, every witness inside the region with Network.Forward(witness)
// equal to the reported value, and the values equal to Table II's.
func checkVerify(cfg config, q verifyQuery, status int, body []byte) (*vnnserver.VerifyResponse, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("I2x%d: status %d: %s", q.width, status, body)
	}
	var resp vnnserver.VerifyResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("I2x%d: decode: %w", q.width, err)
	}
	if len(resp.Results) != len(q.props) {
		return nil, fmt.Errorf("I2x%d: %d results for %d properties", q.width, len(resp.Results), len(q.props))
	}
	region := vnn.LeftOccupiedRegion()
	for i, r := range resp.Results {
		if !r.Exact {
			return nil, fmt.Errorf("I2x%d: result %d not exact", q.width, i)
		}
		if q.prove && r.Outcome == "proved" {
			if r.UpperBound == nil || *r.UpperBound > proofThreshold {
				return nil, fmt.Errorf("I2x%d: proof %d without a bound at %g", q.width, i, proofThreshold)
			}
			continue
		}
		if r.Value == nil || len(r.Witness) != len(region.Box) {
			return nil, fmt.Errorf("I2x%d: result %d has no witness of dimension %d", q.width, i, len(region.Box))
		}
		for j, x := range r.Witness {
			if iv := region.Box[j]; x < iv.Lo-verifyTol || x > iv.Hi+verifyTol {
				return nil, fmt.Errorf("I2x%d: witness input %d = %g outside [%g, %g]", q.width, j, x, iv.Lo, iv.Hi)
			}
		}
		out := q.net.Forward(r.Witness)
		got := math.Inf(-1)
		if q.prove {
			got = out[*q.props[i].Output]
			if got <= proofThreshold {
				return nil, fmt.Errorf("I2x%d: violation witness reaches only %g", q.width, got)
			}
		} else {
			for _, o := range q.props[i].Outputs {
				got = math.Max(got, out[o])
			}
		}
		if math.Abs(got-*r.Value) > verifyTol {
			return nil, fmt.Errorf("I2x%d: Forward(witness) = %.17g, reported %.17g", q.width, got, *r.Value)
		}
		if ref, ok := cfg.references[q.width]; ok && !q.prove && math.Abs(*r.Value-ref) > verifyTol {
			return nil, fmt.Errorf("I2x%d: value %.17g, Table II %.17g", q.width, *r.Value, ref)
		}
	}
	if cfg.references != nil && q.prove && resp.Worst != "violated" {
		return nil, fmt.Errorf("I2x%d: %g m/s proof %s, Table II says violated", q.width, proofThreshold, resp.Worst)
	}
	return &resp, nil
}

// resolvedWorkers reads the worker count the server gave a query from
// the query's trace.
func resolvedWorkers(srv *server, id string) (int, error) {
	var tr struct {
		Root struct {
			Attrs map[string]any `json:"attrs"`
		} `json:"root"`
	}
	if err := srv.getJSON("/debug/traces/"+id, &tr); err != nil {
		return 0, err
	}
	w, ok := tr.Root.Attrs["workers"].(float64)
	if !ok {
		return 0, fmt.Errorf("trace %s has no workers attribute", id)
	}
	return int(w), nil
}

// runRound sends one round over HTTP and checks every answer. It
// returns the round's wall time and exact effort counts.
func runRound(cfg config, srv *server, rep *report, qs []verifyQuery) (float64, roundStats, []int, error) {
	var (
		rs        roundStats
		respBytes []int
		firstID   string
	)
	m0, err := srv.metrics()
	if err != nil {
		return 0, rs, nil, err
	}
	t0 := time.Now()
	for _, q := range qs {
		status, body, err := srv.post("/v1/verify", q.body)
		if err != nil {
			rep.check(err)
			continue
		}
		resp, err := checkVerify(cfg, q, status, body)
		rep.check(err)
		if err != nil {
			continue
		}
		respBytes = append(respBytes, len(body))
		if firstID == "" {
			firstID = resp.ID
		}
		for _, r := range resp.Results {
			rs.nodes += r.Stats.Nodes
			rs.pivots += r.Stats.LPPivots
			rs.binaries += r.Stats.Binaries
			rs.stable += r.Stats.StableNeurons
		}
	}
	wall := time.Since(t0).Seconds()
	if rep.workers == 0 && firstID != "" {
		if rep.workers, err = resolvedWorkers(srv, firstID); err != nil {
			return 0, rs, nil, err
		}
	}
	m1, err := srv.metrics()
	if err != nil {
		return 0, rs, nil, err
	}
	rs.solves = m1.Solves - m0.Solves
	rs.encodePasses = m1.EncodePasses - m0.EncodePasses
	rs.tightenPasses = m1.TightenPasses - m0.TightenPasses
	return wall, rs, respBytes, nil
}

func runVerifyTable2(cfg config) (*report, error) {
	st, srv, setupS, err := repeatSetup(cfg, func(srv *server) (*verifyState, error) { return prepareVerify(cfg, srv) })
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	rep := newReport()
	rng := rand.New(rand.NewSource(cfg.seed))
	m0, err := srv.metrics()
	if err != nil {
		return nil, err
	}
	var (
		rounds   []float64
		first    roundStats
		firstQs  []verifyQuery
		respSize []int
		queries  int
	)
	// Whole rounds while another fits in the measurement time (one in a
	// traced run, which replays it instead).
	restore := loadProcs()
	c0, err := srv.cpuSeconds()
	if err != nil {
		return nil, err
	}
	for start := time.Now(); len(rounds) == 0 || (!cfg.trace && time.Since(start).Seconds()+rounds[len(rounds)-1] <= cfg.seconds); {
		qs, err := buildRound(cfg, st, rng)
		if err != nil {
			return nil, err
		}
		wall, rs, sizes, err := runRound(cfg, srv, rep, qs)
		if err != nil {
			return nil, err
		}
		if len(rounds) == 0 {
			first, firstQs, respSize = rs, qs, sizes
		}
		rounds = append(rounds, wall)
		queries += len(qs)
	}
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
	t := summarize(rounds)
	fmt.Printf("verify-table2: %d rounds of %d queries\n", len(rounds), len(firstQs))
	fmt.Printf("counts (round 0): milp.nodes=%d lp.pivots=%d bounds.binaries=%d bounds.stable_neurons=%d milp.solves=%d verify.encode_passes=%d verify.tighten_passes=%d\n",
		first.nodes, first.pivots, first.binaries, first.stable, first.solves, first.encodePasses, first.tightenPasses)
	fmt.Printf("metric queries_per_s = %v 1/s\n", float64(queries)/t.sum)
	fmt.Printf("metric p50_ms = %v ms (Table II round, n=%d)\n", t.p50*1e3, t.n)
	fmt.Printf("metric %s_ms = %v ms (Table II round, n=%d)\n", t.tailName(), t.tail*1e3, t.n)
	rep.e2e["setup_s"] = setupS
	rep.e2e["rss_peak_mb"] = rss
	rep.e2e["cpu_ms_per_req"] = (c1 - c0) * 1e3 / float64(queries)
	if !cfg.trace {
		return rep, nil
	}

	l := rep.layer
	l["milp.nodes"] = float64(first.nodes)
	l["lp.pivots"] = float64(first.pivots)
	l["bounds.binaries"] = float64(first.binaries)
	l["bounds.stable_neurons"] = float64(first.stable)
	l["milp.solves"] = float64(first.solves)
	l["verify.encode_passes"] = float64(first.encodePasses)
	l["verify.tighten_passes"] = float64(first.tightenPasses)
	l["highway.dataset_s"] = st.datasetS
	l["train.fit_s"] = st.fitS
	serverLayers(l, m0, m1, "/v1/verify")
	l["vnnserver.cache.hit_ratio"] = float64(m1.Cache.Hits-m0.Cache.Hits) / float64(max(1, m1.Cache.Hits+m1.Cache.Misses-m0.Cache.Hits-m0.Cache.Misses))
	l["wire.resp_bytes"] = meanInt(respSize)

	traced, err := replayVerify(cfg, rep.workers, firstQs, newRecorder(true), l)
	if err != nil {
		return nil, err
	}
	untraced, err := replayVerify(cfg, rep.workers, firstQs, newRecorder(false), nil)
	if err != nil {
		return nil, err
	}
	l["harness.trace_overhead"] = traced.wall / untraced.wall
	return rep, traced.rec.write(cfg.traceDir, fmt.Sprintf("verify-table2-seed%d.json", cfg.seed))
}

// replayed is one in-process replay: its recorder and wall time.
type replayed struct {
	rec  *recorder
	wall float64
}

// replayVerify runs the round's requests through the public functions in
// handler order — decode, unmarshal, fingerprint, bound propagation,
// compile, verify, encode — with the server's resolved worker count.
// With l non-nil it fills the layer metrics from the spans.
func replayVerify(cfg config, workers int, qs []verifyQuery, rec *recorder, l map[string]float64) (replayed, error) {
	ctx := context.Background()
	var pivots int
	t0 := time.Now()
	for i, q := range qs {
		root := rec.begin("request", i, -1)
		var (
			req     vnnserver.VerifyRequest
			net     *vnn.Network
			region  *vnn.Region
			props   []vnn.Property
			cn      *vnn.CompiledNetwork
			results []*vnn.Result
			err     error
		)
		rec.do("wire.decode", i, root, func() {
			if err = json.Unmarshal(q.body, &req); err != nil {
				return
			}
			if region, err = req.Region.Region(); err != nil {
				return
			}
			for _, ps := range req.Properties {
				var p vnn.Property
				if p, err = ps.Property(); err != nil {
					return
				}
				props = append(props, p)
			}
		})
		if err != nil {
			return replayed{}, err
		}
		rec.do("vnn.unmarshal_network", i, root, func() { net, err = vnn.UnmarshalNetwork(req.Network) })
		if err != nil {
			return replayed{}, err
		}
		rec.do("vnn.fingerprint", i, root, func() { _, err = vnn.Fingerprint(net, region, vnn.Options{}) })
		if err != nil {
			return replayed{}, err
		}
		rec.do("bounds.propagate", i, root, func() { _, err = bounds.Propagate(net, region.Box) })
		if err != nil {
			return replayed{}, err
		}
		rec.do("verify.compile", i, root, func() { cn, err = vnn.Compile(ctx, net, region, vnn.Options{Workers: workers}) })
		if err != nil {
			return replayed{}, err
		}
		rec.do("milp.solve", i, root, func() { results, err = vnn.Verify(ctx, cn, props...) })
		if err != nil {
			return replayed{}, err
		}
		for _, r := range results {
			pivots += r.Stats.LPPivots
		}
		rec.do("wire.encode", i, root, func() {
			_, err = json.Marshal(vnnserver.VerifyResponse{Report: vnn.NewReport(net, results)})
		})
		if err != nil {
			return replayed{}, err
		}
		rec.end(root)
	}
	wall := time.Since(t0).Seconds()
	if l != nil {
		st := rec.selfTimes()
		l["wire.decode_us"] = meanUS(st, "wire.decode")
		l["wire.encode_us"] = meanUS(st, "wire.encode")
		l["vnn.unmarshal_network_us"] = meanUS(st, "vnn.unmarshal_network")
		l["vnn.fingerprint_us"] = meanUS(st, "vnn.fingerprint")
		l["bounds.propagate_us"] = meanUS(st, "bounds.propagate")
		l["verify.compile_ms"] = meanUS(st, "verify.compile") / 1e3
		l["milp.solve_s"] = meanUS(st, "milp.solve") / 1e6
		l["lp.us_per_pivot"] = st["milp.solve"].selfUS / float64(max(pivots, 1))
		var reqBytes []int
		for _, q := range qs {
			reqBytes = append(reqBytes, len(q.body))
		}
		l["wire.req_bytes"] = meanInt(reqBytes)
		fmt.Printf("replay: lp.us_per_pivot base: %d pivots over %.3fs of solve\n", pivots, st["milp.solve"].selfUS/1e6)
	}
	return replayed{rec: rec, wall: wall}, nil
}

// serverLayers fills the server-side layer metrics from two Metrics()
// snapshots around the measured traffic.
func serverLayers(l map[string]float64, m0, m1 vnnserver.Metrics, route string) {
	l["vnnserver.cache.evictions"] = float64(m1.Cache.Evictions - m0.Cache.Evictions)
	h := histDelta(m0, m1, "vnnd_request_duration_seconds", route)
	l["vnnserver.handler_p50_ms"] = histQuantile(h, 0.5) * 1e3
	q := histDelta(m0, m1, "vnnd_queue_wait_seconds", "")
	if q.Count > 0 {
		l["vnnserver.queue_wait_ms"] = float64(q.Sum) * q.Scale / float64(q.Count) * 1e3
	}
}

func meanInt(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t int
	for _, x := range xs {
		t += x
	}
	return float64(t) / float64(len(xs))
}
