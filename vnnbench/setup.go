package main

import (
	"math/rand"

	"repro/internal/core"
	"repro/internal/dataval"
	"repro/internal/highway"
	"repro/internal/nn"
	"repro/internal/train"
	"repro/pkg/vnn"
)

// tableIIDepth is the depth of every benchmarked predictor (I2×w).
const tableIIDepth = 2

// dataset generates the simulator dataset of the Table II recipe
// (bench_test.go: 3 episodes of 150 steps) from simSeed and drops
// samples that break the data-validation rules.
func dataset(simSeed int64, episodes, steps int) ([]train.Sample, error) {
	cfg := highway.DefaultDatasetConfig()
	cfg.Episodes = episodes
	cfg.StepsPerEpisode = steps
	cfg.Sim.Seed = simSeed
	data, err := highway.GenerateDataset(cfg)
	if err != nil {
		return nil, err
	}
	clean, _ := dataval.Sanitize(data, core.SafetyRules(1e-9))
	return clean, nil
}

// trainPredictor trains an I2×width predictor with the Table II recipe
// of bench_test.go (fixed init and shuffle seeds per width).
func trainPredictor(data []train.Sample, width, epochs int) *vnn.Predictor {
	pred := core.NewPredictorNet(tableIIDepth, width, 2, int64(width)*31+7)
	tr := &train.Trainer{
		Net: pred.Net, Loss: train.MDN{K: 2}, Opt: train.NewAdam(0.003),
		BatchSize: 64, Rng: rand.New(rand.NewSource(int64(width))), ClipNorm: 20,
	}
	tr.Fit(data, epochs)
	return pred
}

// permuteHidden returns a copy of net whose hidden neurons are reordered
// by rng: the function it computes is unchanged, but its bytes, and so
// its fingerprint, are new.
func permuteHidden(net *nn.Network, rng *rand.Rand) *nn.Network {
	out := net.Clone()
	for li := 0; li+1 < len(out.Layers); li++ {
		cur, next := out.Layers[li], out.Layers[li+1]
		perm := rng.Perm(len(cur.W))
		w := make([][]float64, len(cur.W))
		b := make([]float64, len(cur.B))
		for i, p := range perm {
			w[i] = append([]float64(nil), cur.W[p]...)
			b[i] = cur.B[p]
		}
		cur.W, cur.B = w, b
		for r := range next.W {
			row := make([]float64, len(next.W[r]))
			for i, p := range perm {
				row[i] = next.W[r][p]
			}
			next.W[r] = row
		}
	}
	out.Pack()
	return out
}
