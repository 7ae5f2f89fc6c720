package verify

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

// TestSingleMILPMatchesPerOutput cross-checks the disjunctive encoding
// against the per-output solves on random networks.
func TestSingleMILPMatchesPerOutput(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed + 400))
		net := nn.New(nn.Config{
			Name: "d", InputDim: 3, Hidden: []int{6, 5}, OutputDim: 4,
			HiddenAct: nn.ReLU, OutputAct: nn.Identity,
		}, rng)
		region := unitRegion(3)
		outs := []int{0, 1, 2, 3}
		per, err := maxOverOutputs(context.Background(), net, region, outs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		single, err := MaxOverOutputsSingleMILP(context.Background(), net, region, outs, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !per.Exact || !single.Exact {
			t.Fatalf("seed %d: inexact answers", seed)
		}
		if math.Abs(per.Value-single.Value) > 1e-5 {
			t.Fatalf("seed %d: single-MILP %g != per-output %g", seed, single.Value, per.Value)
		}
		// The witness replays: max over outputs at the witness equals Value.
		raw := net.Forward(single.Witness)
		best := math.Inf(-1)
		for _, oi := range outs {
			best = math.Max(best, raw[oi])
		}
		if math.Abs(best-single.Value) > 1e-5 {
			t.Fatalf("seed %d: witness replay %g != %g", seed, best, single.Value)
		}
	}
}

func TestSingleMILPValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	net := nn.New(nn.Config{Name: "v", InputDim: 2, Hidden: []int{3}, OutputDim: 2, HiddenAct: nn.ReLU, OutputAct: nn.Identity}, rng)
	if _, err := MaxOverOutputsSingleMILP(context.Background(), net, unitRegion(2), nil, Options{}); err == nil {
		t.Fatal("empty output list accepted")
	}
	if _, err := MaxOverOutputsSingleMILP(context.Background(), net, unitRegion(2), []int{5}, Options{}); err == nil {
		t.Fatal("bad output index accepted")
	}
}

// TestSingleMILPSubset: restricting the output set can only lower (or keep)
// the maximum.
func TestSingleMILPSubset(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	net := nn.New(nn.Config{Name: "s", InputDim: 2, Hidden: []int{5}, OutputDim: 3, HiddenAct: nn.ReLU, OutputAct: nn.Identity}, rng)
	region := unitRegion(2)
	all, err := MaxOverOutputsSingleMILP(context.Background(), net, region, []int{0, 1, 2}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sub, err := MaxOverOutputsSingleMILP(context.Background(), net, region, []int{1}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Value > all.Value+1e-6 {
		t.Fatalf("subset max %g exceeds full max %g", sub.Value, all.Value)
	}
}
