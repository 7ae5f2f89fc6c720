package vnnserver_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"

	"repro/pkg/vnn"
	"repro/pkg/vnnserver"
)

// TestFalsifyNeedsOutputs: a falsify request without output indices is
// the client's fault, rejected with 400 before it reaches the scheduler.
func TestFalsifyNeedsOutputs(t *testing.T) {
	srv, ts := newTestServer(t, vnnserver.Config{})
	netJSON, err := vnn.MarshalNetwork(rolloutNet())
	if err != nil {
		t.Fatal(err)
	}
	for name, outputs := range map[string]string{"missing": "", "empty": `,"outputs":[]`} {
		body := fmt.Sprintf(`{"network":%s,"region":{"box":[[0,1],[0,1]]}%s}`, netJSON, outputs)
		resp, err := http.Post(ts.URL+"/v1/falsify", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var e struct{ Error string }
		json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || e.Error != "request needs at least one output index" {
			t.Fatalf("%s outputs: status %d, error %q; want 400", name, resp.StatusCode, e.Error)
		}
	}
	if st := srv.Metrics().Scheduler; st.Completed != 0 || st.Admitted != 0 {
		t.Fatalf("rejected falsify reached the scheduler: %+v", st)
	}
}

// TestTraceRecordsResolvedWorkers: the trace root's "workers" attribute
// is the worker count the job actually ran with — the request's pinned
// count when it sets one (even above GOMAXPROCS), else the fair share,
// which for a lone job is every core.
func TestTraceRecordsResolvedWorkers(t *testing.T) {
	_, ts := newTestServer(t, vnnserver.Config{})
	netJSON, err := vnn.MarshalNetwork(rolloutNet())
	if err != nil {
		t.Fatal(err)
	}
	cores := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ pinned, want int }{{cores + 1, cores + 1}, {0, cores}} {
		body, err := json.Marshal(vnnserver.VerifyRequest{
			Network:    netJSON,
			Region:     vnn.RegionSpec{Box: [][2]float64{{0, 1}, {0, 1}}},
			Properties: []vnn.PropertySpec{{Kind: "max", Outputs: []int{0}}},
			Options:    vnnserver.QueryOptions{Workers: tc.pinned},
		})
		if err != nil {
			t.Fatal(err)
		}
		var vr vnnserver.VerifyResponse
		if st := postVerify(t, ts.URL, body, &vr); st != http.StatusOK {
			t.Fatalf("workers=%d: status %d", tc.pinned, st)
		}
		got, ok := getTrace(t, ts.URL, vr.ID).Root.Attrs["workers"].(float64)
		if !ok || int(got) != tc.want {
			t.Fatalf("workers=%d: trace root workers %v, want %d", tc.pinned, got, tc.want)
		}
	}
}

// TestGateEffortCountsInMetrics: a model gate's solver effort lands in
// the /metrics nodes and lp_pivots counters, exactly as its report's
// results account it.
func TestGateEffortCountsInMetrics(t *testing.T) {
	srv, ts := newTestServer(t, vnnserver.Config{})
	waitRegistryReady(t, srv)
	before := srv.Metrics()
	out := submitModel(t, ts.URL, "gated", rolloutNet(), gateAtMost(1.5), nil)
	if out.Report == nil || len(out.Report.Results) == 0 {
		t.Fatalf("gate report has no results: %+v", out)
	}
	var nodes, pivots int64
	for _, r := range out.Report.Results {
		nodes += int64(r.Stats.Nodes)
		pivots += int64(r.Stats.LPPivots)
	}
	after := srv.Metrics()
	if nodes == 0 || after.Nodes-before.Nodes != nodes || after.LPPivots-before.LPPivots != pivots {
		t.Fatalf("metrics moved nodes %d, lp_pivots %d; gate report says %d, %d",
			after.Nodes-before.Nodes, after.LPPivots-before.LPPivots, nodes, pivots)
	}
}
