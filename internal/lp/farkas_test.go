package lp

import (
	"math"
	"math/rand"
	"testing"
)

// randomIndicatorLP builds a boxed LP over nCont continuous variables and
// nBin [0,1] indicator columns, with ≤, ≥ and = rows that all hold at the
// box midpoint. Fixing indicators to 0 or 1 — the branch-and-bound node
// operation — then makes many children infeasible. It returns the model
// and the indicator indices.
func randomIndicatorLP(rng *rand.Rand, nCont, nBin, nRows int) (*Model, []int) {
	m := NewModel()
	mid := make([]float64, 0, nCont+nBin)
	for i := 0; i < nCont; i++ {
		lo := rng.Float64()*4 - 2
		hi := lo + rng.Float64()*3 + 0.1
		v := m.AddVariable(lo, hi, "")
		m.SetObjective(v, rng.Float64()*2-1)
		mid = append(mid, (lo+hi)/2)
	}
	bins := make([]int, nBin)
	for i := range bins {
		bins[i] = m.AddVariable(0, 1, "")
		m.SetObjective(bins[i], rng.Float64()*2-1)
		mid = append(mid, 0.5)
	}
	m.SetMaximize(rng.Intn(2) == 0)
	for r := 0; r < nRows; r++ {
		var terms []Term
		var lhs float64
		for v := range mid {
			if rng.Float64() < 0.5 {
				c := rng.Float64()*4 - 2
				if v >= nCont {
					c *= 3 // big-M-like indicator weight
				}
				terms = append(terms, Term{v, c})
				lhs += c * mid[v]
			}
		}
		if len(terms) == 0 {
			continue
		}
		switch slack := rng.Float64()*0.5 + 0.01; rng.Intn(5) {
		case 0:
			m.AddConstraint(terms, EQ, lhs, "")
		case 1, 2:
			m.AddConstraint(terms, GE, lhs-slack, "")
		default:
			m.AddConstraint(terms, LE, lhs+slack, "")
		}
	}
	return m, bins
}

// TestWarmInfeasibleConfirmedCold drives the branch-and-bound access
// pattern — fix indicators to 0 or 1, re-solve warm, release — and checks
// every warm answer against a fresh cold solve of a clone: each warm
// Infeasible must be infeasible cold too, each warm optimum must match
// the cold one. It also requires that the warm path did certify
// infeasible children itself, so the Farkas check is what is under test.
func TestWarmInfeasibleConfirmedCold(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	warmInfeasible, optimal := 0, 0
	for trial := 0; trial < 40; trial++ {
		m, bins := randomIndicatorLP(rng, 4+rng.Intn(6), 3+rng.Intn(5), 3+rng.Intn(6))
		s := NewSolver(m)
		if sol, err := s.Solve(Options{}); err != nil || sol.Status != Optimal {
			t.Fatalf("trial %d: root %v err=%v", trial, sol.Status, err)
		}
		for step := 0; step < 30; step++ {
			b := bins[rng.Intn(len(bins))]
			switch rng.Intn(3) {
			case 0:
				m.SetBounds(b, 0, 0)
			case 1:
				m.SetBounds(b, 1, 1)
			default:
				m.SetBounds(b, 0, 1)
			}
			warm, err := s.Solve(Options{})
			if err != nil {
				t.Fatal(err)
			}
			cold, err := Solve(m.Clone(), Options{})
			if err != nil {
				t.Fatal(err)
			}
			switch warm.Status {
			case Infeasible:
				if cold.Status != Infeasible {
					t.Fatalf("trial %d step %d: warm Infeasible, cold %v (objective %g)", trial, step, cold.Status, cold.Objective)
				}
				if !warm.Cold {
					warmInfeasible++
				}
			case Optimal:
				if cold.Status != Optimal {
					t.Fatalf("trial %d step %d: warm Optimal, cold %v", trial, step, cold.Status)
				}
				if d := math.Abs(warm.Objective - cold.Objective); d > 1e-7*(1+math.Abs(cold.Objective)) {
					t.Fatalf("trial %d step %d: warm objective %.12g, cold %.12g", trial, step, warm.Objective, cold.Objective)
				}
				optimal++
			default:
				t.Fatalf("trial %d step %d: warm status %v", trial, step, warm.Status)
			}
		}
	}
	if warmInfeasible < 20 || optimal < 20 {
		t.Fatalf("too few cases exercised: %d infeasible certified warm, %d optimal", warmInfeasible, optimal)
	}
	t.Logf("%d infeasible children certified warm, %d optima", warmInfeasible, optimal)
}

// TestFarkasCheckNeverCertifiesFeasible plants wrong multipliers on
// feasible models (each is feasible at its box midpoint): every row of
// B⁻¹ after a solve, sign-flipped and scaled over twelve orders of
// magnitude; the multipliers that certified an infeasible child, applied
// back to the feasible parent; and purely random vectors. A feasible model
// admits no infeasibility certificate, so no choice of y may pass the
// check. A positive control on an infeasible model shows it is not vacuous.
func TestFarkasCheckNeverCertifiesFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	scales := []float64{1, -1, 1e-6, -1e-6, 1e6, -1e6, 3.7, -0.02}
	planted := 0
	for trial := 0; trial < 30; trial++ {
		m, bins := randomIndicatorLP(rng, 3+rng.Intn(6), 2+rng.Intn(4), 2+rng.Intn(6))
		s := NewSolver(m)
		sol, err := s.Solve(Options{})
		if err != nil || sol.Status != Optimal {
			t.Fatalf("trial %d: %v err=%v", trial, sol.Status, err)
		}
		var ys [][]float64
		for r := 0; r < m.NumConstraints(); r++ {
			base := s.rowMultipliers(r)
			for _, k := range scales {
				y := make([]float64, len(base))
				for i := range y {
					y[i] = k * base[i]
				}
				ys = append(ys, y)
			}
		}
		// Fix indicators until a child is certified infeasible warm and
		// keep every row of its dead-end basis.
		for step := 0; step < 20; step++ {
			m.SetBounds(bins[rng.Intn(len(bins))], float64(rng.Intn(2)), 1)
			sol, err := s.Solve(Options{})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Status == Infeasible && !sol.Cold {
				for r := 0; r < m.NumConstraints(); r++ {
					ys = append(ys, append([]float64(nil), s.rowMultipliers(r)...))
				}
				planted++
				break
			}
		}
		for _, b := range bins {
			m.SetBounds(b, 0, 1)
		}
		for k := 0; k < 50; k++ {
			y := make([]float64, m.NumConstraints())
			for i := range y {
				y[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(7)-3))
			}
			ys = append(ys, y)
		}
		for k, y := range ys {
			if s.certifiesInfeasible(y) {
				t.Fatalf("trial %d: multipliers %d %v certified a feasible model", trial, k, y)
			}
		}
	}
	if planted < 5 {
		t.Fatalf("only %d infeasible children certified warm; the planted case is barely exercised", planted)
	}

	// Positive control: x + z ≥ 1 over x, z ∈ [0, 0.2].
	m := NewModel()
	x := m.AddVariable(0, 0.2, "x")
	z := m.AddVariable(0, 0.2, "z")
	m.AddConstraint([]Term{{x, 1}, {z, 1}}, GE, 1, "floor")
	s := NewSolver(m)
	if !s.certifiesInfeasible([]float64{1}) {
		t.Fatal("the row itself does not certify x + z ≥ 1 over [0, 0.2]²")
	}
	m.SetBounds(x, 0, 0.9) // now feasible: 0.9 + 0.2 ≥ 1
	if s.certifiesInfeasible([]float64{1}) || s.certifiesInfeasible([]float64{-1}) {
		t.Fatal("certified a feasible model")
	}
}

// TestSubScaledBitIdentical checks the unrolled pivot kernel against the
// plain loop bit for bit, over lengths that are and are not multiples of
// four and over values spanning many magnitudes.
func TestSubScaledBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	for n := 0; n <= 37; n++ {
		for trial := 0; trial < 20; trial++ {
			src := make([]float64, n+rng.Intn(3)) // src may be longer than dst
			dst := make([]float64, n)
			for i := range src {
				src[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(17)-8))
			}
			for i := range dst {
				dst[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(17)-8))
			}
			f := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4))
			want := append([]float64(nil), dst...)
			for k := range want {
				want[k] -= f * src[k]
			}
			subScaled(dst, src, f)
			for k := range dst {
				if math.Float64bits(dst[k]) != math.Float64bits(want[k]) {
					t.Fatalf("n=%d k=%d: %v, plain loop %v", n, k, dst[k], want[k])
				}
			}
		}
	}
}
