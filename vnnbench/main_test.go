package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's serving child.
func TestMain(m *testing.M) {
	serveIfChild()
	os.Exit(m.Run())
}

// minimalConfig shrinks every workload to seconds of work: one small
// Table II network, tiny batches and monitor sets.
func minimalConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload = workload
	cfg.trace = trace
	cfg.seconds = 1
	cfg.setupReps = 1
	cfg.traceDir = t.TempDir()
	cfg.widths = []int{4}
	cfg.epochs = 1
	cfg.episodes = 1
	cfg.steps = 60
	cfg.references = nil
	cfg.batch = 8
	cfg.batches = 4
	cfg.refRate = 50
	cfg.growth = 4
	cfg.stepSamples = 20
	cfg.monitorRows = 16
	return cfg
}

type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// runCaptured runs one workload and returns what it printed and its
// result line.
func runCaptured(t *testing.T, cfg config) (string, resultJSON) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	line, runErr := run(cfg)
	os.Stdout = stdout
	w.Close()
	printed := string(<-done)
	if runErr != nil {
		t.Fatalf("%s: %v\n%s", cfg.workload, runErr, printed)
	}
	var res resultJSON
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		t.Fatalf("result line %q: %v", line, err)
	}
	return printed, res
}

// The metric lists in the code are the ones BENCHMARK.json declares.
func TestMetricListsMatchBenchmarkJSON(t *testing.T) {
	bj := readBenchmarkJSON(t)
	check := func(kind string, want []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(want) != len(got) {
			t.Fatalf("%s: code has %d metrics, BENCHMARK.json %d", kind, len(want), len(got))
		}
		for i := range want {
			if want[i].name != got[i].Name || want[i].unit != got[i].Unit {
				t.Errorf("%s %d: code %v, BENCHMARK.json %s %s", kind, i, want[i], got[i].Name, got[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bj.EndToEnd)
	check("per_layer", perLayer, bj.PerLayer)
	for _, w := range bj.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	if len(bj.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, code %d", len(bj.Workloads), len(workloads))
	}
}

// printedOnly are the user-facing rates each workload prints beside the
// bounded metrics.
var printedOnly = map[string][]metricDef{
	"verify-table2": {{"queries_per_s", "1/s"}},
	"infer-warm":    {{"max_rps", "1/s"}},
	"infer-onboard": {{"models_per_s", "1/s"}},
}

// Every workload, untraced and traced, prints each metric with its unit
// and answers correctly.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			cfg := minimalConfig(t, name, trace)
			printed, res := runCaptured(t, cfg)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%t: correct=%t attempted=%d failed=%d\n%s", name, trace, res.Correct, res.Attempted, res.Failed, printed)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%t: result has %s = %+v, want unit %s", name, trace, d.name, m, d.unit)
				}
				line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(d.name) + ` = \S+ ` + regexp.QuoteMeta(d.unit) + `$`)
				if !line.MatchString(printed) {
					t.Errorf("%s trace=%t: no printed line for %s in %s", name, trace, d.name, d.unit)
				}
			}
			for metric, m := range res.Metrics {
				if !trace && m.Value <= 0 {
					t.Errorf("%s: %s = %v, want > 0", name, metric, m.Value)
				}
			}
			if !trace {
				for _, d := range append(printedOnly[name], metricDef{"p50_ms", "ms"}, metricDef{"failed_ratio", "ratio"}) {
					if !regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(d.name) + ` = \S+ ` + regexp.QuoteMeta(d.unit) + `( |$)`).MatchString(printed) {
						t.Errorf("%s: no printed line for %s in %s", name, d.name, d.unit)
					}
				}
			}
			if !strings.Contains(printed, "provenance: cpu=") {
				t.Errorf("%s trace=%t: no provenance line", name, trace)
			}
		}
	}
}

// A corrupted response is counted as failed, on every workload.
func TestCorruptedResponseCountsAsFailed(t *testing.T) {
	for _, name := range workloadNames() {
		cfg := minimalConfig(t, name, false)
		cfg.tamper = corruptFirstNumber
		printed, res := runCaptured(t, cfg)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: corrupted responses passed: correct=%t failed=%d of %d\n%s", name, res.Correct, res.Failed, res.Attempted, printed)
		}
	}
}

// corruptFirstNumber changes the first digit of the first reported
// value or output, keeping the document valid JSON.
func corruptFirstNumber(body []byte) []byte {
	for _, key := range []string{`"value":`, `"outputs":[[`} {
		i := bytes.Index(body, []byte(key))
		if i < 0 {
			continue
		}
		for j := i + len(key); j < len(body); j++ {
			if c := body[j]; c >= '0' && c <= '9' {
				out := append([]byte(nil), body...)
				out[j] = '0' + (c-'0'+1)%10
				return out
			}
		}
	}
	return body
}
