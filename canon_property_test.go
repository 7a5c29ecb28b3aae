package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro"
)

// Property suite for the canonical-form layer: for random instances at
// m ∈ {8, 64, 80, 128} and random processor relabelings,
//
//	(a) the canonical bytes are identical across relabelings,
//	(b) Session.Solve metrics are bitwise-equal between the original and
//	    the permuted instance, and
//	(c) the canonical instance's solved mapping, translated back through
//	    the stored permutation, re-scores to bitwise-equal metrics via the
//	    original session's evaluator.
//
// Bitwise float equality under relabeling needs care: a permuted alloc
// set multiplies its failure probabilities in a different order, and
// float products are not associative in general. The scenarios are
// chosen so every label-order-sensitive reduction is exact — power-of-two
// failure probabilities (products of powers of two round nowhere), or
// minLatency optima (singleton allocs, so no label-ordered reductions at
// all) — and restricted to provably/exhaustively graded routes, because
// the heuristic route's annealing trajectory is label-dependent by
// construction.

// pow2FailProbs draws failure probabilities of the form 2^-k, k ∈ 1..4.
func pow2FailProbs(rng *rand.Rand, m int) []float64 {
	fps := make([]float64, m)
	for i := range fps {
		fps[i] = math.Ldexp(1, -(1 + rng.Intn(4)))
	}
	return fps
}

func continuousSpeeds(rng *rand.Rand, m int) []float64 {
	s := make([]float64, m)
	for i := range s {
		s[i] = 1 + 9*rng.Float64()
	}
	return s
}

// canonScenario is one (instance, solve request) pair of the suite.
type canonScenario struct {
	name string
	pipe *repro.Pipeline
	plat *repro.Platform
	req  repro.SolveRequest
}

// scenariosFor builds the property scenarios for one platform width.
func scenariosFor(t *testing.T, m int) []canonScenario {
	t.Helper()
	var out []canonScenario

	// minLatency, unconstrained, fully heterogeneous continuous draws:
	// optima use singleton allocs, so evaluation has no label-ordered
	// reduction at all.
	rng := rand.New(rand.NewSource(int64(1000 + m)))
	pipeHet := repro.UniformPipeline(5, 1, 1)
	{
		w := make([]float64, 5)
		d := make([]float64, 6)
		for i := range w {
			w[i] = 1 + 9*rng.Float64()
		}
		for i := range d {
			d[i] = 1 + 4*rng.Float64()
		}
		var err error
		pipeHet, err = repro.NewPipeline(w, d)
		if err != nil {
			t.Fatal(err)
		}
	}
	bMat := make([][]float64, m)
	bIn := make([]float64, m)
	bOut := make([]float64, m)
	for u := 0; u < m; u++ {
		bMat[u] = make([]float64, m)
		bIn[u] = 1 + 4*rng.Float64()
		bOut[u] = 1 + 4*rng.Float64()
	}
	for u := 0; u < m; u++ {
		for v := u + 1; v < m; v++ {
			bw := 1 + 4*rng.Float64()
			bMat[u][v], bMat[v][u] = bw, bw
		}
	}
	het, err := repro.NewFullyHeterogeneousPlatform(continuousSpeeds(rng, m), pow2FailProbs(rng, m), bMat, bIn, bOut)
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, canonScenario{
		name: "minLatency/het",
		pipe: pipeHet, plat: het,
		req: repro.SolveRequest{Objective: repro.MinimizeLatency},
	})

	// minFailureProb, unconstrained, CommHom with power-of-two failure
	// probabilities: Theorem 1 replicates everything on one interval and
	// the exact products make the FP reduction order-free.
	rng = rand.New(rand.NewSource(int64(2000 + m)))
	commHom, err := repro.NewCommHomogeneousPlatform(continuousSpeeds(rng, m), pow2FailProbs(rng, m), 2)
	if err != nil {
		t.Fatal(err)
	}
	pipeCH, err := repro.NewPipeline(
		[]float64{1 + 9*rng.Float64(), 1 + 9*rng.Float64(), 1 + 9*rng.Float64()},
		[]float64{1, 2, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	out = append(out, canonScenario{
		name: "minFP/commHom",
		pipe: pipeCH, plat: commHom,
		req: repro.SolveRequest{Objective: repro.MinimizeFailureProb},
	})

	// minLatency, unconstrained, CommHom (Theorem 2: fastest processor).
	out = append(out, canonScenario{
		name: "minLatency/commHom",
		pipe: pipeCH, plat: commHom,
		req: repro.SolveRequest{Objective: repro.MinimizeLatency},
	})

	// minFailureProb under a latency bound, small instance only: the
	// bounded bi-criteria route (exact branch-and-bound) with power-of-two
	// failure probabilities. The bound is computed once from the original
	// instance so every relabeled run sees the identical float.
	if m == 8 {
		sess, err := repro.NewSession(pipeCH, commHom)
		if err != nil {
			t.Fatal(err)
		}
		lat, err := sess.Solve(context.Background(), repro.SolveRequest{Objective: repro.MinimizeLatency})
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, canonScenario{
			name: "minFP/latencyBound",
			pipe: pipeCH, plat: commHom,
			req: repro.SolveRequest{Objective: repro.MinimizeFailureProb, MaxLatency: 2 * lat.Metrics.Latency},
		})
	}
	return out
}

// solveGraded solves and asserts the answer is provably or exhaustively
// graded — the property suite must never compare label-dependent
// heuristic trajectories.
func solveGraded(t *testing.T, p *repro.Pipeline, pl *repro.Platform, req repro.SolveRequest) repro.Result {
	t.Helper()
	sess, err := repro.NewSession(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sess.Solve(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if res.Certainty != repro.ProvablyOptimal && res.Certainty != repro.ExhaustivelyOptimal {
		t.Fatalf("scenario routed to %q (%s); the suite needs an optimal route", res.Certainty, res.Method)
	}
	return res
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

func TestCanonicalPropertySuite(t *testing.T) {
	for _, m := range []int{8, 64, 80, 128} {
		m := m
		t.Run(fmt.Sprintf("m=%d", m), func(t *testing.T) {
			for _, sc := range scenariosFor(t, m) {
				sc := sc
				t.Run(sc.name, func(t *testing.T) {
					base, err := repro.CanonicalizeInstance(sc.pipe, sc.plat)
					if err != nil {
						t.Fatal(err)
					}
					orig := solveGraded(t, sc.pipe, sc.plat, sc.req)

					// (c) Solve the canonical instance and re-score its
					// translated mapping on the original labeling.
					canonRes := solveGraded(t, base.Pipeline(), base.Platform(), sc.req)
					translated := base.ToOriginal(canonRes.Mapping)
					origSess, err := repro.NewSession(sc.pipe, sc.plat)
					if err != nil {
						t.Fatal(err)
					}
					rescored, err := origSess.Evaluate(translated)
					if err != nil {
						t.Fatalf("translated mapping invalid on the original instance: %v", err)
					}
					if !bitsEqual(rescored.Latency, canonRes.Metrics.Latency) || !bitsEqual(rescored.FailureProb, canonRes.Metrics.FailureProb) {
						t.Fatalf("translated mapping re-scores to (%v, %v), canonical solve said (%v, %v)",
							rescored.Latency, rescored.FailureProb, canonRes.Metrics.Latency, canonRes.Metrics.FailureProb)
					}

					rng := rand.New(rand.NewSource(int64(31*m) + int64(len(sc.name))))
					for trial := 0; trial < 3; trial++ {
						perm := rng.Perm(sc.plat.NumProcs())
						permuted := sc.plat.Permute(perm)

						// (a) identical canonical bytes.
						cn, err := repro.CanonicalizeInstance(sc.pipe, permuted)
						if err != nil {
							t.Fatal(err)
						}
						if !bytes.Equal(cn.Bytes, base.Bytes) {
							t.Fatalf("trial %d: canonical bytes differ under relabeling", trial)
						}

						// (b) bitwise-equal solve metrics.
						permRes := solveGraded(t, sc.pipe, permuted, sc.req)
						if !bitsEqual(permRes.Metrics.Latency, orig.Metrics.Latency) || !bitsEqual(permRes.Metrics.FailureProb, orig.Metrics.FailureProb) {
							t.Fatalf("trial %d: permuted solve metrics (%v, %v) != original (%v, %v)",
								trial, permRes.Metrics.Latency, permRes.Metrics.FailureProb, orig.Metrics.Latency, orig.Metrics.FailureProb)
						}
						if permRes.Certainty != orig.Certainty {
							t.Fatalf("trial %d: certainty changed under relabeling: %v vs %v", trial, permRes.Certainty, orig.Certainty)
						}

						// (c) on the permuted labeling too: the canonical
						// mapping translated through the permuted instance's
						// own permutation re-scores identically there.
						permTranslated := cn.ToOriginal(canonRes.Mapping)
						permSess, err := repro.NewSession(sc.pipe, permuted)
						if err != nil {
							t.Fatal(err)
						}
						permScored, err := permSess.Evaluate(permTranslated)
						if err != nil {
							t.Fatalf("trial %d: translated mapping invalid on permuted instance: %v", trial, err)
						}
						if !bitsEqual(permScored.Latency, canonRes.Metrics.Latency) || !bitsEqual(permScored.FailureProb, canonRes.Metrics.FailureProb) {
							t.Fatalf("trial %d: permuted re-score (%v, %v) != canonical (%v, %v)",
								trial, permScored.Latency, permScored.FailureProb, canonRes.Metrics.Latency, canonRes.Metrics.FailureProb)
						}
					}
				})
			}
		})
	}
}
