// Package rcr is the public API of this repository: a Go implementation of
// the Robust Convex Relaxation (RCR) framework of Chan, Krunz & Griffin,
// "AI-based Robust Convex Relaxations for Supporting Diverse QoS in
// Next-Generation Wireless Systems" (ICDCS 2021), together with every
// substrate the paper depends on — convex optimization (LP/QP/QCQP/SDP
// solvers, McCormick and ReLU envelopes, the rank→trace→SDP relaxation
// chain), mixed-integer branch and bound, particle swarm optimization with
// adaptive inertia and discrete encodings, a small neural-network library
// with SqueezeNet-style fire layers (the MSY3I), robustness verification
// (interval, triangle-LP, and exact), an FFT/STFT signal kernel with the
// paper's convention/phase-skew audit, and a 5G QoS radio-resource
// allocation model.
//
// The facade re-exports the most common entry points; the full surface
// lives in the internal packages and is exercised by the examples under
// examples/ and the experiment binaries under cmd/.
//
// Quick start:
//
//	report, err := rcr.RunStack(rcr.StackConfig{Seed: 1})
//	// report.BestSpec is the PSO-tuned MSY3I architecture,
//	// report.TriangleVerdict/ExactVerdict its robustness certificates.
//
// To solve a 5G QoS allocation:
//
//	p, _ := rcr.GenerateRRA(2, 2, 2, 12, seed)
//	alloc, _, _ := p.SolveExact(rcr.BnBOptions{})
//	rep, _ := p.Evaluate(alloc)
package rcr

import (
	"repro/internal/core"
	"repro/internal/minlp"
	"repro/internal/prob"
	"repro/internal/pso"
	"repro/internal/qos"
	"repro/internal/qp"
	"repro/internal/relax"
	"repro/internal/verify"
)

// StackConfig configures a full RCR stack run (see core.StackConfig).
type StackConfig = core.StackConfig

// StackReport is the result of a full RCR stack run.
type StackReport = core.StackReport

// RunStack executes the paper's three-layer RCR pipeline: the numeric
// kernel fits the adaptive PSO inertia by convex optimization, PSO tunes
// the MSY3I hyperparameters, and the tuned network is adversarially
// trained and certified with the relaxed/exact verifier pair.
func RunStack(cfg StackConfig) (*StackReport, error) {
	return core.RunStack(cfg)
}

// FitAdaptiveInertia solves the layer-1 convex problem producing the
// adaptive inertia schedule for PSO.
var FitAdaptiveInertia = core.FitAdaptiveInertia

// RRAProblem is a 5G QoS radio-resource-allocation instance.
type RRAProblem = qos.Problem

// RRAAllocation is a resource-block assignment with powers.
type RRAAllocation = qos.Allocation

// RRAReport scores an allocation (rates, spectral efficiency, QoS).
type RRAReport = qos.Report

// BnBOptions configures the exact branch-and-bound solver.
type BnBOptions = minlp.Options

// PSOOptions configures particle swarm runs.
type PSOOptions = pso.Options

// GenerateRRA builds a reproducible RRA instance with the given user mix
// (eMBB / URLLC / mMTC counts) over numRBs resource blocks.
func GenerateRRA(nEMBB, nURLLC, nMMTC, numRBs int, seed uint64) (*RRAProblem, error) {
	return qos.GenerateProblem(nEMBB, nURLLC, nMMTC, numRBs, seed)
}

// Interval is a closed interval, the basic currency of bound propagation.
type Interval = relax.Interval

// VerifyNetwork is the affine/ReLU network form accepted by the verifiers.
type VerifyNetwork = verify.Network

// VerifySpec is a linear robustness property c·y + d >= 0.
type VerifySpec = verify.Spec

// ExactOptions configures the exact verifier's branch-and-bound budget.
type ExactOptions = verify.ExactOptions

// Verdicts of the robustness verifiers.
const (
	VerdictRobust    = verify.VerdictRobust
	VerdictFalsified = verify.VerdictFalsified
	VerdictUnknown   = verify.VerdictUnknown
)

// VerifyIBP certifies with interval bound propagation (cheap, loose).
var VerifyIBP = verify.VerifyIBP

// VerifyCROWN certifies with backward linear bound propagation — tighter
// than IBP, cheaper than the LP.
var VerifyCROWN = verify.VerifyCROWN

// VerifyTriangle certifies with the triangle-LP relaxation (the relaxed,
// incomplete verifier).
var VerifyTriangle = verify.VerifyTriangle

// VerifyExact certifies with complete branch and bound over ReLU phases.
var VerifyExact = verify.VerifyExact

// BoxAround returns the ℓ∞ ball of radius eps around x.
var BoxAround = verify.BoxAround

// McCormick returns the convex/concave envelopes of a bilinear term over a
// box — the basic relaxation atom of the framework.
var McCormick = relax.McCormick

// DecomposeDiagLowRank runs the paper's Eq. 8-10 pipeline: the rank
// objective relaxed to trace and solved as an SDP, splitting a symmetric
// matrix into diagonal plus low-rank PSD parts.
var DecomposeDiagLowRank = prob.DecomposeDiagLowRank

// QCQP is the paper's Eq. 7 problem class; solve with SolveQCQP.
type QCQP = qp.Problem

// Quad is the quadratic form ½xᵀPx + qᵀx + r used by QCQP objectives and
// constraints.
type Quad = qp.Quad

// QCQPOptions configures the barrier solver.
type QCQPOptions = qp.Options

// SolveQCQP minimizes a convex quadratically-constrained quadratic program
// with the log-barrier interior-point method (x0 nil runs phase 1).
func SolveQCQP(p *QCQP, x0 []float64, o QCQPOptions) (*qp.Result, error) {
	return qp.Solve(p, x0, o)
}
