package verify_test

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bounds"
	"repro/internal/nn"
	"repro/internal/verify"
	"repro/pkg/vnn"
)

// minMax answers vnn.MinOutput(out) and vnn.MaxOutput(out) on one
// compilation of net over region.
func minMax(t *testing.T, net *nn.Network, region *verify.InputRegion, out int) (mn, mx *vnn.Result) {
	t.Helper()
	cn, err := vnn.Compile(context.Background(), net, region, vnn.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := vnn.Verify(context.Background(), cn, vnn.MinOutput(out), vnn.MaxOutput(out))
	if err != nil {
		t.Fatal(err)
	}
	return res[0], res[1]
}

func TestMinOutput(t *testing.T) {
	// y = relu(x) - 1 on [-1,1]: min = -1 (any x<=0), max = 0 at x=1... max = relu(1)-1 = 0.
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1}}, B: []float64{0}, Act: nn.ReLU},
		{W: [][]float64{{1}}, B: []float64{-1}, Act: nn.Identity},
	}}
	region := &verify.InputRegion{Box: []bounds.Interval{{Lo: -1, Hi: 1}}}
	mn, mx := minMax(t, net, region, 0)
	if !mn.Exact || math.Abs(mn.Value+1) > 1e-6 {
		t.Fatalf("min = %g (exact=%v), want -1", mn.Value, mn.Exact)
	}
	if math.Abs(mx.Value) > 1e-6 {
		t.Fatalf("max = %g, want 0", mx.Value)
	}
	if mn.Value > mx.Value {
		t.Fatal("min exceeds max")
	}
}

func TestMinMaxConsistencyRandom(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		rng := rand.New(rand.NewSource(seed + 30))
		net := nn.New(nn.Config{Name: "m", InputDim: 2, Hidden: []int{5}, OutputDim: 2, HiddenAct: nn.ReLU, OutputAct: nn.Identity}, rng)
		region := &verify.InputRegion{Box: []bounds.Interval{{Lo: -1, Hi: 1}, {Lo: -1, Hi: 1}}}
		mn, mx := minMax(t, net, region, 1)
		if mn.Value > mx.Value+1e-6 {
			t.Fatalf("seed %d: min %g > max %g", seed, mn.Value, mx.Value)
		}
		// A random point's output must fall between them.
		x := []float64{rng.Float64()*2 - 1, rng.Float64()*2 - 1}
		v := net.Forward(x)[1]
		if v < mn.Value-1e-6 || v > mx.Value+1e-6 {
			t.Fatalf("seed %d: sample %g outside [%g, %g]", seed, v, mn.Value, mx.Value)
		}
	}
}
