package verify

import (
	"context"
	"math"
	"testing"

	"repro/internal/nn"
)

// TestLadderOrdering verifies the precision ladder on random networks:
// interval ≥ relaxation ≥ exact maximum, and the exact maximum is
// achievable (witnessed).
func TestLadderOrdering(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		net := randomReLUNet(seed+200, 3, []int{6, 5}, 1)
		region := unitRegion(3)
		lad, err := Ladder(context.Background(), net, region, 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !lad.ExactConclusive {
			t.Fatalf("seed %d: exact bound inconclusive", seed)
		}
		const tol = 1e-6
		if lad.Interval < lad.Relaxation-tol {
			t.Fatalf("seed %d: interval %g below relaxation %g (interval must be loosest)",
				seed, lad.Interval, lad.Relaxation)
		}
		if lad.Relaxation < lad.Exact-tol {
			t.Fatalf("seed %d: relaxation %g below exact %g (relaxation must over-approximate)",
				seed, lad.Relaxation, lad.Exact)
		}
	}
}

// TestLadderStrictGapExists finds at least one network where each rung is
// strictly tighter — otherwise the ladder would be pointless.
func TestLadderStrictGapExists(t *testing.T) {
	strictInterval, strictRelax := false, false
	for seed := int64(0); seed < 8; seed++ {
		net := randomReLUNet(seed+300, 3, []int{7, 6}, 1)
		lad, err := Ladder(context.Background(), net, unitRegion(3), 0, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if lad.Interval > lad.Relaxation+1e-4 {
			strictInterval = true
		}
		if lad.Relaxation > lad.Exact+1e-4 {
			strictRelax = true
		}
	}
	if !strictInterval {
		t.Fatal("interval bound never strictly looser than relaxation over 8 nets")
	}
	if !strictRelax {
		t.Fatal("relaxation never strictly looser than exact over 8 nets")
	}
}

func TestRelaxationBoundValidation(t *testing.T) {
	net := randomReLUNet(1, 2, []int{3}, 1)
	if _, err := RelaxationBound(context.Background(), net, unitRegion(2), 9, Options{}); err == nil {
		t.Fatal("bad output index accepted")
	}
}

func TestRelaxationTightWhenAllStable(t *testing.T) {
	// Every neuron stable on the region (biases push pre-activations away
	// from zero): no binaries exist, so relaxation == exact == interval-ish.
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1}, {-1}}, B: []float64{10, -10}, Act: nn.ReLU},
		{W: [][]float64{{1, 1}}, B: []float64{0}, Act: nn.Identity},
	}}
	region := unitRegion(1)
	lad, err := Ladder(context.Background(), net, region, 0, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Output = relu(x+10) + relu(-x-10) = x + 10 on [-1,1]: max 11.
	if math.Abs(lad.Exact-11) > 1e-6 {
		t.Fatalf("exact = %g, want 11", lad.Exact)
	}
	if math.Abs(lad.Relaxation-lad.Exact) > 1e-6 {
		t.Fatalf("relaxation %g should equal exact %g with no unstable neurons", lad.Relaxation, lad.Exact)
	}
}
