package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/exact"
	"repro/internal/heuristics"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/poly"
	"repro/internal/workload"
)

func TestSolveValidation(t *testing.T) {
	p, pl := workload.Fig5()
	if _, err := Solve(Problem{}); err == nil {
		t.Error("empty problem accepted")
	}
	if _, err := Solve(Problem{Pipeline: p, Platform: pl, MaxLatency: -1}); err == nil {
		t.Error("negative MaxLatency accepted")
	}
	if _, err := Solve(Problem{Pipeline: p, Platform: pl, MaxFailProb: 2}); err == nil {
		t.Error("MaxFailProb > 1 accepted")
	}
	if _, err := Solve(Problem{Pipeline: p, Platform: pl, MaxFailProb: math.NaN()}); err == nil {
		t.Error("NaN MaxFailProb accepted")
	}
}

func TestSolveTheorem1Routing(t *testing.T) {
	p, pl := workload.Fig5()
	res, err := Solve(Problem{Pipeline: p, Platform: pl, Objective: MinimizeFailureProb})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certainty != ProvablyOptimal {
		t.Errorf("certainty = %v, want ProvablyOptimal", res.Certainty)
	}
	want := 0.1 * math.Pow(0.8, 10)
	if math.Abs(res.Metrics.FailureProb-want) > 1e-12 {
		t.Errorf("FP = %g, want %g", res.Metrics.FailureProb, want)
	}
}

func TestSolveTheorem2Routing(t *testing.T) {
	p, pl := workload.Fig5()
	res, err := Solve(Problem{Pipeline: p, Platform: pl, Objective: MinimizeLatency})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certainty != ProvablyOptimal {
		t.Errorf("certainty = %v, want ProvablyOptimal", res.Certainty)
	}
	if math.Abs(res.Metrics.Latency-11.01) > 1e-9 {
		t.Errorf("latency = %g, want 11.01", res.Metrics.Latency)
	}
}

func TestSolveAlgorithm1Routing(t *testing.T) {
	p := pipeline.MustNew([]float64{1, 1}, []float64{4, 9, 4})
	pl, _ := platform.NewFullyHomogeneous(5, 1, 2, 0.5)
	res, err := Solve(Problem{Pipeline: p, Platform: pl, Objective: MinimizeFailureProb, MaxLatency: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certainty != ProvablyOptimal || res.Method != "Algorithm 1 (Theorem 5)" {
		t.Errorf("got %v via %q", res.Certainty, res.Method)
	}
	if math.Abs(res.Metrics.FailureProb-0.125) > 1e-12 {
		t.Errorf("FP = %g, want 0.125", res.Metrics.FailureProb)
	}
	// Infeasible threshold surfaces ErrInfeasible.
	if _, err := Solve(Problem{Pipeline: p, Platform: pl, Objective: MinimizeFailureProb, MaxLatency: 1}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestSolveAlgorithm2Routing(t *testing.T) {
	p := pipeline.MustNew([]float64{1, 1}, []float64{4, 9, 4})
	pl, _ := platform.NewFullyHomogeneous(5, 1, 2, 0.5)
	res, err := Solve(Problem{Pipeline: p, Platform: pl, Objective: MinimizeLatency, MaxFailProb: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "Algorithm 2 (Theorem 5)" || res.Metrics.Latency != 10 {
		t.Errorf("got %q latency %g, want Algorithm 2 latency 10", res.Method, res.Metrics.Latency)
	}
}

func TestSolveAlgorithms34Routing(t *testing.T) {
	p := pipeline.MustNew([]float64{6}, []float64{1, 1})
	pl, _ := platform.NewCommHomogeneous([]float64{4, 3, 2, 1}, []float64{0.5, 0.5, 0.5, 0.5}, 1)
	res, err := Solve(Problem{Pipeline: p, Platform: pl, Objective: MinimizeFailureProb, MaxLatency: 7})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "Algorithm 3 (Theorem 6)" || math.Abs(res.Metrics.FailureProb-0.125) > 1e-12 {
		t.Errorf("got %q FP %g, want Algorithm 3 FP 0.125", res.Method, res.Metrics.FailureProb)
	}
	res, err = Solve(Problem{Pipeline: p, Platform: pl, Objective: MinimizeLatency, MaxFailProb: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Method != "Algorithm 4 (Theorem 6)" || res.Metrics.Latency != 7 {
		t.Errorf("got %q latency %g, want Algorithm 4 latency 7", res.Method, res.Metrics.Latency)
	}
}

// TestSolveOpenCaseFig5: the open class (CommHom + FailureHet) routes to
// exact enumeration on this small instance and finds the paper's
// two-interval optimum.
func TestSolveOpenCaseFig5(t *testing.T) {
	p, pl := workload.Fig5()
	res, err := Solve(Problem{
		Pipeline:   p,
		Platform:   pl,
		Objective:  MinimizeFailureProb,
		MaxLatency: workload.Fig5LatencyThreshold,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := 1 - (1-0.1)*(1-math.Pow(0.8, 10))
	if math.Abs(res.Metrics.FailureProb-want) > 1e-12 {
		t.Errorf("FP = %g, want %g", res.Metrics.FailureProb, want)
	}
	if res.Certainty == ProvablyOptimal {
		t.Error("open class must not be labeled ProvablyOptimal")
	}
}

// TestSolveHeuristicFallback: forcing heuristics still solves Fig5.
func TestSolveHeuristicFallback(t *testing.T) {
	p, pl := workload.Fig5()
	res, err := SolveWithOptions(Problem{
		Pipeline:   p,
		Platform:   pl,
		Objective:  MinimizeFailureProb,
		MaxLatency: workload.Fig5LatencyThreshold,
	}, Options{ForceHeuristic: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certainty != Heuristic {
		t.Errorf("certainty = %v, want Heuristic", res.Certainty)
	}
	want := 1 - (1-0.1)*(1-math.Pow(0.8, 10))
	if res.Metrics.FailureProb > want+1e-9 {
		t.Errorf("heuristic FP = %g, want ≤ %g", res.Metrics.FailureProb, want)
	}
}

// TestSolveFullyHetLatency: minimizing latency on the Fig 3/4 instance
// (NP-hard class) returns the split mapping of latency 7.
func TestSolveFullyHetLatency(t *testing.T) {
	p, pl := workload.Fig34()
	res, err := Solve(Problem{Pipeline: p, Platform: pl, Objective: MinimizeLatency})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Metrics.Latency-7) > 1e-9 {
		t.Errorf("latency = %g, want 7", res.Metrics.Latency)
	}
}

func TestSolveHeuristicNotFound(t *testing.T) {
	p, pl := workload.Fig5()
	_, err := SolveWithOptions(Problem{
		Pipeline:   p,
		Platform:   pl,
		Objective:  MinimizeFailureProb,
		MaxLatency: 0.5, // below any achievable latency
	}, Options{ForceHeuristic: true, Anneal: heuristics.AnnealConfig{Iters: 200, Restarts: 1, Seed: 1}})
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("err = %v, want ErrNotFound", err)
	}
	// Exact path proves infeasibility instead.
	_, err = Solve(Problem{Pipeline: p, Platform: pl, Objective: MinimizeFailureProb, MaxLatency: 0.5})
	if !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

func TestMinLatencyGeneral(t *testing.T) {
	p, pl := workload.Fig34()
	res, err := MinLatencyGeneral(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Latency-7) > 1e-9 {
		t.Errorf("general latency = %g, want 7", res.Latency)
	}
	if _, err := MinLatencyGeneral(&pipeline.Pipeline{}, pl); err == nil {
		t.Error("invalid pipeline accepted")
	}
}

func TestEstimateMappingCount(t *testing.T) {
	// n=1, m=2 with replication: subsets counted as (p+1)^m = 3^2 = 9 ≥ 3
	// actual — the estimate is an upper bound used only for routing.
	if got := EstimateMappingCount(1, 2); got < 3 {
		t.Errorf("estimate %g below actual mapping count 3", got)
	}
	if EstimateMappingCount(4, 6) <= EstimateMappingCount(2, 3) {
		t.Error("estimate should grow with instance size")
	}
	if EstimateMappingCount(20, 64) < 1e18 {
		t.Error("large instances should blow past the exact budget")
	}
}

func TestParetoExactSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	inst := workload.Random(rng, platform.CommHomogeneous, 2, 4)
	front, cert, err := Pareto(inst.Pipeline, inst.Platform, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cert != ExhaustivelyOptimal {
		t.Errorf("certainty = %v, want ExhaustivelyOptimal for 2×4", cert)
	}
	if front.Len() == 0 {
		t.Fatal("empty front")
	}
	// The extremes must agree with the mono-criterion optima.
	minFP, _ := Solve(Problem{Pipeline: inst.Pipeline, Platform: inst.Platform, Objective: MinimizeFailureProb})
	es := front.Entries()
	tail := es[len(es)-1]
	if math.Abs(tail.Metrics.FailureProb-minFP.Metrics.FailureProb) > 1e-12 {
		t.Errorf("front tail FP %g != Theorem 1 optimum %g", tail.Metrics.FailureProb, minFP.Metrics.FailureProb)
	}
}

func TestParetoHeuristicLarge(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inst := workload.Random(rng, platform.CommHomogeneous, 6, 14)
	front, cert, err := Pareto(inst.Pipeline, inst.Platform, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if cert != Heuristic {
		t.Errorf("certainty = %v, want Heuristic for 6×14", cert)
	}
	if front.Len() == 0 {
		t.Fatal("empty front")
	}
}

// Property: on the provably-polynomial classes, Solve agrees with
// exhaustive enumeration.
func TestSolveMatchesExactOnEasyClasses(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		inst := workload.RandomFailureHomogeneous(rng, 1+rng.Intn(3), 2+rng.Intn(3))
		L := 10 + rng.Float64()*200
		got, gotErr := Solve(Problem{Pipeline: inst.Pipeline, Platform: inst.Platform, Objective: MinimizeFailureProb, MaxLatency: L})
		want, wantErr := exact.MinFPUnderLatency(inst.Pipeline, inst.Platform, L, exact.Options{})
		if (gotErr == nil) != (wantErr == nil) {
			return false
		}
		if gotErr != nil {
			return true
		}
		return math.Abs(got.Metrics.FailureProb-want.Metrics.FailureProb) <= 1e-9 &&
			got.Certainty == ProvablyOptimal
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestObjectiveAndCertaintyStrings(t *testing.T) {
	if MinimizeLatency.String() != "minimize latency" ||
		MinimizeFailureProb.String() != "minimize failure probability" {
		t.Error("Objective.String mismatch")
	}
	if ProvablyOptimal.String() != "provably optimal" ||
		ExhaustivelyOptimal.String() != "exhaustively optimal" ||
		Heuristic.String() != "heuristic" {
		t.Error("Certainty.String mismatch")
	}
}

// TestSolveFullyHetConstrained routes a constrained fully heterogeneous
// instance (the NP-hard class) through the exhaustive solver.
func TestSolveFullyHetConstrained(t *testing.T) {
	p, pl := workload.Fig34()
	// Min FP under a latency bound on the fully heterogeneous platform.
	res, err := Solve(Problem{
		Pipeline:   p,
		Platform:   pl,
		Objective:  MinimizeFailureProb,
		MaxLatency: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certainty != ExhaustivelyOptimal {
		t.Errorf("certainty = %v, want ExhaustivelyOptimal", res.Certainty)
	}
	if res.Metrics.Latency > 10+1e-9 {
		t.Errorf("latency %g violates bound", res.Metrics.Latency)
	}
	// Min latency under an FP bound: with fp = 0.1 each, a single replica
	// gives FP 0.1; demanding 0.05 forces replication somewhere.
	res2, err := Solve(Problem{
		Pipeline:    p,
		Platform:    pl,
		Objective:   MinimizeLatency,
		MaxFailProb: 0.2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Metrics.FailureProb > 0.2+1e-12 {
		t.Errorf("FP %g violates bound", res2.Metrics.FailureProb)
	}
	// Infeasible FP bound: single-stage intervals need a replica each and
	// 0.1·0.1 = 0.01 is the best single-interval FP; ask for less.
	if _, err := Solve(Problem{
		Pipeline:    p,
		Platform:    pl,
		Objective:   MinimizeLatency,
		MaxFailProb: 0.005,
	}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("err = %v, want ErrInfeasible", err)
	}
}

// TestSolveBoundsFallbackPath: a FullyHet instance whose general optimum
// revisits a processor exercises the relaxation-plus-search fallback (the
// result must still be within the bounds bracket).
func TestSolveBoundsFallbackPath(t *testing.T) {
	// P0 is fast with fast in/out links; P1 is the only good middle-stage
	// host: the general optimum is P0,P1,P0 (a revisit).
	p := pipeline.MustNew([]float64{1, 8, 1}, []float64{4, 4, 4, 4})
	pl, err := platform.NewFullyHeterogeneous(
		[]float64{8, 8},
		[]float64{0.1, 0.1},
		[][]float64{{0, 8}, {8, 0}},
		[]float64{8, 0.5},
		[]float64{8, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Solve(Problem{Pipeline: p, Platform: pl, Objective: MinimizeLatency})
	if err != nil {
		t.Fatal(err)
	}
	ex, err := exact.MinLatencyInterval(p, pl, exact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Metrics.Latency-ex.Metrics.Latency) > 1e-9 {
		t.Errorf("solver latency %g, exhaustive %g", res.Metrics.Latency, ex.Metrics.Latency)
	}
}

func TestSolveCustomExactBudget(t *testing.T) {
	p, pl := workload.Fig34()
	// A tiny budget forces the heuristic even on this small instance.
	res, err := SolveWithOptions(Problem{
		Pipeline:   p,
		Platform:   pl,
		Objective:  MinimizeFailureProb,
		MaxLatency: 200,
	}, Options{ExactBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Certainty != Heuristic {
		t.Errorf("certainty = %v, want Heuristic under budget 1", res.Certainty)
	}
}

// TestSolveCommHomPastBudgetRoutesExact: a communication-homogeneous,
// failure-heterogeneous instance (the open class of §4.4) whose
// mapping-count estimate exceeds the exact budget still routes to the
// branch-and-bound when m ≤ commHomExactProcs — the JPEG case study's
// situation (n = 7 on m = 8 estimates 1.1e7 mappings, over the default
// 5e6). The budget here is a third of the estimate, which keeps the
// reference enumeration small. Both objectives over a five-bound ladder
// must come back exact and equal to the optimum of a plain slice-based
// enumeration.
func TestSolveCommHomPastBudgetRoutesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1407))
	n, m := 4, 8
	p := pipeline.Random(rng, n, 10, 20, 1, 4)
	pl := platform.RandomCommHomogeneous(rng, m, 2, 12, 0.02, 0.3, 5)
	if pl.FailureHomogeneous() {
		t.Fatal("fixture must be failure-heterogeneous")
	}
	budget := EstimateMappingCount(n, m) / 3
	opts := Options{ExactBudget: budget}

	// Ladder endpoints: Theorem 2's latency optimum and Theorem 1's FP
	// optimum bound both trade-off ranges.
	fast, err := poly.MinLatencyCommHom(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	safe, err := poly.MinFailureProb(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	var latBounds, fpBounds [5]float64
	for i := range latBounds {
		x := 0.1 + 0.2*float64(i)
		latBounds[i] = fast.Metrics.Latency * math.Pow(safe.Metrics.Latency/fast.Metrics.Latency, x)
		fpBounds[i] = safe.Metrics.FailureProb * math.Pow(fast.Metrics.FailureProb/safe.Metrics.FailureProb, x)
	}

	// One slice-based pass scores every mapping against all ten queries,
	// with the engine's feasibility tolerances.
	var minFP, minLat [5]float64
	for i := range minFP {
		minFP[i], minLat[i] = math.Inf(1), math.Inf(1)
	}
	err = exact.ForEachMapping(n, m, exact.Options{Replication: true, MaxEnum: int64(2 * EstimateMappingCount(n, m))}, func(mp *mapping.Mapping) bool {
		met, err := mapping.Evaluate(p, pl, mp)
		if err != nil {
			t.Fatal(err)
		}
		for i, L := range latBounds {
			if met.Latency <= L+1e-9*math.Max(1, L) && met.FailureProb < minFP[i] {
				minFP[i] = met.FailureProb
			}
		}
		for i, F := range fpBounds {
			if met.FailureProb <= F+1e-12 && met.Latency < minLat[i] {
				minLat[i] = met.Latency
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, pr Problem, got func(mapping.Metrics) float64, want float64) {
		t.Helper()
		res, err := SolveWithOptions(pr, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Route != "exact" || res.Certainty != ExhaustivelyOptimal {
			t.Fatalf("%s: route %q certainty %v, want exact / exhaustively optimal", name, res.Route, res.Certainty)
		}
		if got(res.Metrics) != want {
			t.Fatalf("%s: objective %v, reference %v", name, got(res.Metrics), want)
		}
	}
	for i := range latBounds {
		check(fmt.Sprintf("min FP s.t. latency ≤ %g", latBounds[i]),
			Problem{Pipeline: p, Platform: pl, Objective: MinimizeFailureProb, MaxLatency: latBounds[i]},
			func(m mapping.Metrics) float64 { return m.FailureProb }, minFP[i])
		check(fmt.Sprintf("min latency s.t. FP ≤ %g", fpBounds[i]),
			Problem{Pipeline: p, Platform: pl, Objective: MinimizeLatency, MaxFailProb: fpBounds[i]},
			func(m mapping.Metrics) float64 { return m.Latency }, minLat[i])
	}

	// The budget still caps the search it no longer gates: at two
	// evaluated mappings the branch-and-bound gives up and the
	// heuristics answer.
	res, err := SolveWithOptions(Problem{Pipeline: p, Platform: pl, Objective: MinimizeFailureProb, MaxLatency: latBounds[2]}, Options{ExactBudget: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Route != "heuristic" {
		t.Errorf("budget 1: route %q, want heuristic", res.Route)
	}
}

// TestSolveCommHomWideDeadline: the communication-homogeneous gate admits
// the branch-and-bound at m = 16 whatever the mapping count, where a full
// search can run for seconds. A 1 ms deadline must still come back
// promptly with a Partial answer.
func TestSolveCommHomWideDeadline(t *testing.T) {
	rng := rand.New(rand.NewSource(1608))
	p := pipeline.Random(rng, 8, 1, 10, 1, 10)
	pl := platform.RandomCommHomogeneous(rng, commHomExactProcs, 1, 10, 0.05, 0.5, 3)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := SolveCtx(ctx, Problem{Pipeline: p, Platform: pl, Objective: MinimizeFailureProb, MaxLatency: 60}, Options{})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	limit := 100 * time.Millisecond
	if raceEnabled {
		limit *= 10
	}
	if elapsed > limit {
		t.Errorf("deadline-bounded solve took %v, want < %v", elapsed, limit)
	}
	if res.Certainty != Partial {
		t.Errorf("certainty = %v (route %q), want Partial", res.Certainty, res.Route)
	}
	if err := res.Mapping.Validate(8, commHomExactProcs); err != nil {
		t.Errorf("invalid mapping: %v", err)
	}
}

// TestSolveMoreStagesThanProcessors: when m < n interval mappings are
// mandatory (paper §2.2); the solver must still work across classes.
func TestSolveMoreStagesThanProcessors(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	p := pipeline.Random(rng, 6, 1, 5, 1, 5)

	plHom, _ := platform.NewFullyHomogeneous(2, 2, 2, 0.3)
	res, err := Solve(Problem{Pipeline: p, Platform: plHom, Objective: MinimizeFailureProb, MaxLatency: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Mapping.Validate(6, 2); err != nil {
		t.Fatalf("invalid mapping: %v", err)
	}

	plHet := platform.RandomFullyHeterogeneous(rng, 3, 1, 10, 0.1, 0.5, 1, 10)
	res2, err := Solve(Problem{Pipeline: p, Platform: plHet, Objective: MinimizeLatency})
	if err != nil {
		t.Fatal(err)
	}
	if err := res2.Mapping.Validate(6, 3); err != nil {
		t.Fatalf("invalid mapping: %v", err)
	}
	// At most m intervals can exist.
	if res2.Mapping.NumIntervals() > 3 {
		t.Errorf("%d intervals with m=3", res2.Mapping.NumIntervals())
	}
}
