package verify_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataval"
	"repro/internal/highway"
	"repro/internal/train"
	"repro/internal/verify"
	"repro/pkg/vnn"
)

// TestTable2WarmPathConcludesNodes pins the warm branch-and-bound path on a
// Table II query: an I2×6 predictor trained with the Table II recipe
// (3 episodes of 150 simulator steps, 10 epochs, fixed seeds), maximum
// lateral velocity over the left-occupied region, one worker. Only the
// root relaxation may need a cold two-phase solve; every child node —
// feasible or infeasible — must be concluded from its parent's basis.
// Before infeasible children were certified warm, about a fifth of all
// nodes went cold.
func TestTable2WarmPathConcludesNodes(t *testing.T) {
	cfg := highway.DefaultDatasetConfig()
	cfg.Episodes = 3
	cfg.StepsPerEpisode = 150
	cfg.Sim.Seed = 1
	data, err := highway.GenerateDataset(cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean, _ := dataval.Sanitize(data, core.SafetyRules(1e-9))
	const width = 6
	pred := core.NewPredictorNet(2, width, 2, width*31+7)
	tr := &train.Trainer{
		Net: pred.Net, Loss: train.MDN{K: 2}, Opt: train.NewAdam(0.003),
		BatchSize: 64, Rng: rand.New(rand.NewSource(width)), ClipNorm: 20,
	}
	tr.Fit(clean, 10)

	opts := verify.Options{Workers: 1}
	c, err := verify.Compile(context.Background(), pred.Net, vnn.LeftOccupiedRegion(), opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.MaxOverOutputs(context.Background(), vnn.MuLatOutputs(2), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Exact {
		t.Fatal("query did not finish exactly")
	}
	st := res.Stats
	roots := len(vnn.MuLatOutputs(2)) // one MILP, so one cold root, per output
	if st.Nodes < 100 {
		t.Fatalf("only %d nodes: the query no longer exercises branch-and-bound", st.Nodes)
	}
	if beyond := st.ColdSolves - roots; float64(beyond) > 0.01*float64(st.Nodes) {
		t.Fatalf("%d cold solves beyond the %d roots over %d nodes (> 1%%)", beyond, roots, st.Nodes)
	}
	t.Logf("nodes %d, pivots %d, cold solves %d", st.Nodes, st.LPPivots, st.ColdSolves)
}
