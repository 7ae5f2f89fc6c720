// Package core assembles the paper's case study: an ANN-based highway
// motion predictor (84 inputs → Gaussian-mixture action distribution) and
// the certification pipeline of Table I — data validation, training,
// neuron-to-feature traceability, coverage analysis, runtime monitoring
// and formal verification of the safety property "if a vehicle exists on
// the left of the ego vehicle, the predictor never suggests a large left
// lateral velocity".
//
// The predictor itself — construction, decoding, safety queries, hints
// fine-tuning, safety rules — is public API in pkg/vnn; this package owns
// the end-to-end certification pipeline (RunPipeline).
package core

import "repro/pkg/vnn"

// DefaultComponents is the number of mixture components in the predictor's
// Gaussian-mixture head.
const DefaultComponents = 3

// NewPredictorNet constructs an untrained predictor network in the paper's
// I<depth>×<width> family (see vnn.NewPredictor). It and SafetyRules stay
// here because the end-to-end benchmark (vnnbench/setup.go) imports them.
func NewPredictorNet(depth, width, k int, seed int64) *vnn.Predictor {
	return vnn.NewPredictor(depth, width, k, seed)
}

// SafetyRules returns the data-validation rules of the case study (see
// vnn.SafetyRules).
func SafetyRules(latTol float64) []vnn.DataRule { return vnn.SafetyRules(latTol) }
