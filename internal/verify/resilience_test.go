package verify

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"repro/internal/bounds"
	"repro/internal/nn"
)

func TestResilienceLinearExact(t *testing.T) {
	// y = x on [-1, 1], nominal x0 = 0, threshold 0.5: the true resilience
	// radius is exactly 0.5.
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1}}, B: []float64{0}, Act: nn.Identity},
	}}
	dom := []bounds.Interval{{Lo: -1, Hi: 1}}
	res, err := Resilience(context.Background(), net, []float64{0}, dom, 0, 0.5, ResilienceOptions{MaxIterations: 16})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Epsilon-0.5) > 0.01 {
		t.Fatalf("epsilon = %g, want ~0.5", res.Epsilon)
	}
	if res.Breaking == nil || res.BreakingValue <= 0.5 {
		t.Fatalf("breaking point missing or non-violating: %v -> %g", res.Breaking, res.BreakingValue)
	}
	if !res.Certified {
		t.Fatal("a positive radius was certified; Certified must be true")
	}
}

func TestResilienceWholeDomainSafe(t *testing.T) {
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1}}, B: []float64{0}, Act: nn.Identity},
	}}
	dom := []bounds.Interval{{Lo: -1, Hi: 1}}
	res, err := Resilience(context.Background(), net, []float64{0}, dom, 0, 5, ResilienceOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epsilon != 1 || res.Breaking != nil {
		t.Fatalf("whole domain is safe: eps=%g breaking=%v", res.Epsilon, res.Breaking)
	}
	if res.Iterations != 1 {
		t.Fatalf("full-radius fast path not taken: %d iterations", res.Iterations)
	}
}

func TestResilienceValidation(t *testing.T) {
	net := &nn.Network{Layers: []*nn.Layer{
		{W: [][]float64{{1}}, B: []float64{0}, Act: nn.Identity},
	}}
	dom := []bounds.Interval{{Lo: -1, Hi: 1}}
	if _, err := Resilience(context.Background(), net, []float64{0, 0}, dom, 0, 1, ResilienceOptions{}); err == nil {
		t.Fatal("dim mismatch accepted")
	}
	if _, err := Resilience(context.Background(), net, []float64{5}, dom, 0, 1, ResilienceOptions{}); err == nil {
		t.Fatal("nominal outside domain accepted")
	}
	if _, err := Resilience(context.Background(), net, []float64{0.9}, dom, 0, 0.5, ResilienceOptions{}); err == nil {
		t.Fatal("violating nominal accepted")
	}
}

func TestResilienceCertifiedRadiusIsSound(t *testing.T) {
	// Random ReLU net: inside the certified ball, dense sampling must never
	// violate the threshold.
	rng := rand.New(rand.NewSource(5))
	net := nn.New(nn.Config{Name: "r", InputDim: 2, Hidden: []int{6}, OutputDim: 1, HiddenAct: nn.ReLU, OutputAct: nn.Identity}, rng)
	dom := []bounds.Interval{{Lo: -1, Hi: 1}, {Lo: -1, Hi: 1}}
	x0 := []float64{0.1, -0.2}
	thr := net.Forward(x0)[0] + 0.3
	res, err := Resilience(context.Background(), net, x0, dom, 0, thr, ResilienceOptions{MaxIterations: 12})
	if err != nil {
		t.Fatal(err)
	}
	if res.Epsilon <= 0 {
		t.Skip("no positive radius certified for this seed; nothing to sample")
	}
	for s := 0; s < 2000; s++ {
		x := []float64{
			math.Max(dom[0].Lo, math.Min(dom[0].Hi, x0[0]+(rng.Float64()*2-1)*res.Epsilon)),
			math.Max(dom[1].Lo, math.Min(dom[1].Hi, x0[1]+(rng.Float64()*2-1)*res.Epsilon)),
		}
		if v := net.Forward(x)[0]; v > thr+1e-6 {
			t.Fatalf("violation inside certified ball: %v -> %g > %g", x, v, thr)
		}
	}
}
