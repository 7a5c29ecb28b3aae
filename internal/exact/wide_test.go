package exact

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// Tests for the bitset search of engine.go. The strategy is two-pronged:
// (1) run small instances where the slice reference is exhaustively
// enumerable, proving the search structure (visit set, pruning,
// tie-breaks) equivalent for all four solvers; (2) run genuinely wide
// platforms (m ∈ {80, 128}, replica ids beyond bit 64) where the
// singleton-replica space is still small enough for the reference,
// proving the multi-word arithmetic end to end.

// TestForcedWideVisitsSameSet: the enumeration must visit exactly the
// reference mapping set, for both replication settings and several
// worker counts (mirror of TestMaskedEnumerationVisitsSameSet).
func TestForcedWideVisitsSameSet(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(4)
		m := 1 + rng.Intn(4)
		for _, repl := range []bool{false, true} {
			want := map[string]int{}
			err := ForEachMapping(n, m, Options{Replication: repl}, func(mp *mapping.Mapping) bool {
				want[mp.String()]++
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 3} {
				got := make([]map[string]int, workers)
				err := ForEachMappingParallel(n, m, Options{Replication: repl, Workers: workers},
					func(w int) func(int64, *mapping.Mapping) bool {
						got[w] = map[string]int{}
						return func(_ int64, mp *mapping.Mapping) bool {
							if err := mp.Validate(n, m); err != nil {
								t.Errorf("invalid enumerated mapping: %v", err)
							}
							got[w][mp.String()]++
							return true
						}
					})
				if err != nil {
					t.Fatal(err)
				}
				merged := map[string]int{}
				for _, g := range got {
					for k, c := range g {
						merged[k] += c
					}
				}
				if len(merged) != len(want) {
					t.Fatalf("n=%d m=%d repl=%v workers=%d: visited %d distinct mappings, want %d",
						n, m, repl, workers, len(merged), len(want))
				}
				for k, c := range want {
					if merged[k] != c {
						t.Fatalf("n=%d m=%d repl=%v: mapping %s visited %d times, want %d", n, m, repl, k, merged[k], c)
					}
				}
			}
		}
	}
}

// TestForcedWideSolversMatchReference: all four solvers must return
// bitwise-identical metrics to the unpruned slice reference on
// randomized instances, sequentially and in parallel.
func TestForcedWideSolversMatchReference(t *testing.T) {
	for seed := int64(0); seed < 80; seed++ {
		p, pl := randomInstance(seed)
		rng := rand.New(rand.NewSource(seed + 900))
		L := 1 + rng.Float64()*40
		F := rng.Float64()

		for _, workers := range []int{1, 4} {
			opts := Options{Workers: workers}

			got, gotErr := MinLatencyInterval(p, pl, opts)
			want, wantErr := refMinLatency(p, pl, Options{})
			checkSame(t, seed, "wide MinLatencyInterval", got, gotErr, want, wantErr, func(a, b mapping.Metrics) bool {
				return a.Latency == b.Latency
			})

			got, gotErr = MinFPUnderLatency(p, pl, L, opts)
			want, wantErr = refMinFPUnderLatency(p, pl, L, Options{})
			checkSame(t, seed, "wide MinFPUnderLatency", got, gotErr, want, wantErr, func(a, b mapping.Metrics) bool {
				return a == b
			})

			got, gotErr = MinLatencyUnderFP(p, pl, F, opts)
			want, wantErr = refMinLatencyUnderFP(p, pl, F, Options{})
			checkSame(t, seed, "wide MinLatencyUnderFP", got, gotErr, want, wantErr, func(a, b mapping.Metrics) bool {
				return a == b
			})
		}
	}
}

// TestForcedWideParetoMatchesReference: the wide Pareto front must equal
// the reference front's metric sequence bitwise for every worker count,
// and its representatives must be scheduling-independent.
func TestForcedWideParetoMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		p, pl := randomInstance(seed)
		want, err := refParetoFront(p, pl, Options{})
		if err != nil {
			t.Fatal(err)
		}
		var rep []string
		for _, workers := range []int{1, 4} {
			got, err := ParetoFront(p, pl, Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d workers %d: front size %d, reference %d", seed, workers, len(got), len(want))
			}
			for i := range got {
				if got[i].Metrics != want[i].Metrics {
					t.Fatalf("seed %d workers %d: front[%d] = %+v, reference %+v",
						seed, workers, i, got[i].Metrics, want[i].Metrics)
				}
			}
			if rep == nil {
				for _, r := range got {
					rep = append(rep, r.Mapping.String())
				}
				continue
			}
			for i, r := range got {
				if r.Mapping.String() != rep[i] {
					t.Fatalf("seed %d workers %d: representative front[%d] = %s, want %s",
						seed, workers, i, r.Mapping, rep[i])
				}
			}
		}
	}
}

// widePlatform builds an m-processor platform whose parameters vary per
// processor, so mistakes in high-word replica indexing change metrics.
func widePlatform(t *testing.T, m int, commHom bool, seed int64) *platform.Platform {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	if commHom {
		return platform.RandomCommHomogeneous(rng, m, 1, 10, 0.05, 0.95, 2)
	}
	return platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.05, 0.95, 1, 20)
}

// TestWideSolverMatchesReferenceM80M128: at m = 80 and m = 128 the
// latency solver (singleton replica sets, so the slice reference stays
// enumerable) must return bitwise-identical metrics to the reference and
// identical mappings for 1, 4 and GOMAXPROCS workers. n = 2 keeps the
// reference's (m-level recursion) × (injective assignment) tree small
// while mappings still use replica ids on both sides of the word
// boundary; TestWideDeterminismDeeperPipeline covers n = 3 engine-only.
func TestWideSolverMatchesReferenceM80M128(t *testing.T) {
	cases := []struct{ n, m int }{{2, 80}, {2, 128}}
	for _, c := range cases {
		for _, commHom := range []bool{true, false} {
			rng := rand.New(rand.NewSource(int64(c.m)))
			p := pipeline.Random(rng, c.n, 1, 10, 0, 10)
			pl := widePlatform(t, c.m, commHom, int64(c.m)+7)
			want, err := refMinLatency(p, pl, Options{MaxEnum: math.MaxInt64})
			if err != nil {
				t.Fatal(err)
			}
			var first Result
			for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
				got, err := MinLatencyInterval(p, pl, Options{Workers: workers, MaxEnum: math.MaxInt64})
				if err != nil {
					t.Fatalf("n=%d m=%d commHom=%v workers=%d: %v", c.n, c.m, commHom, workers, err)
				}
				if got.Metrics.Latency != want.Metrics.Latency {
					t.Fatalf("n=%d m=%d commHom=%v workers=%d: latency %v, reference %v",
						c.n, c.m, commHom, workers, got.Metrics.Latency, want.Metrics.Latency)
				}
				if met, err := mapping.Evaluate(p, pl, got.Mapping); err != nil || met != got.Metrics {
					t.Fatalf("n=%d m=%d: returned mapping does not reproduce its metrics (%v, %v)", c.n, c.m, met, err)
				}
				if first.Mapping == nil {
					first = got
				} else if got.Mapping.String() != first.Mapping.String() {
					t.Fatalf("n=%d m=%d commHom=%v workers=%d: nondeterministic mapping %s vs %s",
						c.n, c.m, commHom, workers, got.Mapping, first.Mapping)
				}
			}
		}
	}
}

// TestWideDeterminismDeeperPipeline: at n = 3, m = 80 (≈ half a million
// singleton candidates, too slow for the slice reference) the pruned
// engine must return the identical mapping and metrics for every worker
// count and across repeated runs.
func TestWideDeterminismDeeperPipeline(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	p := pipeline.Random(rng, 3, 1, 10, 0, 10)
	pl := widePlatform(t, 80, false, 42)
	first, err := MinLatencyInterval(p, pl, Options{Workers: 1, MaxEnum: math.MaxInt64})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		for rep := 0; rep < 2; rep++ {
			got, err := MinLatencyInterval(p, pl, Options{Workers: workers, MaxEnum: math.MaxInt64})
			if err != nil {
				t.Fatal(err)
			}
			if got.Metrics != first.Metrics || got.Mapping.String() != first.Mapping.String() {
				t.Fatalf("workers=%d rep=%d: %s %+v, want %s %+v",
					workers, rep, got.Mapping, got.Metrics, first.Mapping, first.Metrics)
			}
		}
	}
}

// TestWideEnumerationVisitsSameSetM80: the wide singleton enumeration at
// m = 80 must visit exactly the reference set (replica ids ≥ 64 occur,
// so cross-word iteration is exercised end to end).
func TestWideEnumerationVisitsSameSetM80(t *testing.T) {
	n, m := 2, 80
	want := map[string]bool{}
	if err := ForEachMapping(n, m, Options{MaxEnum: math.MaxInt64}, func(mp *mapping.Mapping) bool {
		want[mp.String()] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	sawHigh := false
	merged := map[string]bool{}
	err := ForEachMappingParallel(n, m, Options{Workers: 1, MaxEnum: math.MaxInt64},
		func(int) func(int64, *mapping.Mapping) bool {
			return func(_ int64, mp *mapping.Mapping) bool {
				for _, procs := range mp.Alloc {
					for _, u := range procs {
						if u >= 64 {
							sawHigh = true
						}
					}
				}
				merged[mp.String()] = true
				return true
			}
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(merged) != len(want) {
		t.Fatalf("visited %d distinct mappings, want %d", len(merged), len(want))
	}
	for k := range want {
		if !merged[k] {
			t.Fatalf("mapping %s never visited by the wide enumeration", k)
		}
	}
	if !sawHigh {
		t.Fatal("no replica id ≥ 64 seen: the high words were never exercised")
	}
}

// bigWideHetInstance is bigHetInstance stretched to m = 80: far beyond
// any exhaustible replication space, for cancellation tests on the wide
// path.
func bigWideHetInstance(t *testing.T) (*pipeline.Pipeline, *platform.Platform) {
	t.Helper()
	n, m := 12, 80
	w := make([]float64, n)
	delta := make([]float64, n+1)
	for i := range w {
		w[i] = float64(3 + i)
	}
	for i := range delta {
		delta[i] = float64(1 + i%2)
	}
	p, err := pipeline.New(w, delta)
	if err != nil {
		t.Fatal(err)
	}
	speed := make([]float64, m)
	fp := make([]float64, m)
	bIn := make([]float64, m)
	bOut := make([]float64, m)
	b := make([][]float64, m)
	for u := 0; u < m; u++ {
		speed[u] = 1 + float64(u)
		fp[u] = 0.05 + 0.9*float64(u)/float64(m)
		bIn[u] = 2
		bOut[u] = 3
		b[u] = make([]float64, m)
		for v := 0; v < m; v++ {
			if u != v {
				b[u][v] = 1 + 0.1*float64(u%10)
			}
		}
	}
	pl, err := platform.NewFullyHeterogeneous(speed, fp, b, bIn, bOut)
	if err != nil {
		t.Fatal(err)
	}
	return p, pl
}

// TestWideCancelReturnsPromptlyWithIncumbent mirrors the small-instance
// cancellation-promptness test at m = 80: node-level abort, best-so-far
// incumbent surfaced.
func TestWideCancelReturnsPromptlyWithIncumbent(t *testing.T) {
	p, pl := bigWideHetInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := MinFPUnderLatency(p, pl, 1e9, Options{MaxEnum: 1 << 62, Ctx: ctx})
	elapsed := time.Since(start)
	if elapsed > 500*time.Millisecond {
		t.Errorf("cancelled wide enumeration took %v, want well under 500ms", elapsed)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err must also wrap context.Canceled: %v", err)
	}
	if res.Mapping == nil {
		t.Error("cancelled wide search should return its incumbent")
	} else if err := res.Mapping.Validate(p.NumStages(), pl.NumProcs()); err != nil {
		t.Errorf("incumbent invalid: %v", err)
	}
}

// TestWidePreCancelledContextAbortsBeforeWork: a context that is already
// done must stop the wide search before it expands anything.
func TestWidePreCancelledContextAbortsBeforeWork(t *testing.T) {
	p, pl := bigWideHetInstance(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	start := time.Now()
	_, err := MinFPUnderLatency(p, pl, 1e9, Options{MaxEnum: 1 << 62, Ctx: ctx})
	if since := time.Since(start); since > 100*time.Millisecond {
		t.Errorf("pre-cancelled wide enumeration took %v, want < 100ms", since)
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

// TestWideDeadlineExceededWrapsThrough: deadline errors must round-trip
// through errors.Is on the wide path too.
func TestWideDeadlineExceededWrapsThrough(t *testing.T) {
	p, pl := bigWideHetInstance(t)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	_, err := MinLatencyUnderFP(p, pl, 1, Options{MaxEnum: 1 << 62, Ctx: ctx})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("err = %v, want ErrCanceled wrapping context.DeadlineExceeded", err)
	}
}

// TestWideBudgetTripsAtM128: the shared enumeration budget must abort
// the wide replication search on a space that cannot be exhausted.
func TestWideBudgetTripsAtM128(t *testing.T) {
	p := pipeline.Uniform(2, 1, 1)
	pl, err := platform.NewFullyHomogeneous(128, 1, 1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MinFPUnderLatency(p, pl, math.Inf(1), Options{MaxEnum: 100}); !errors.Is(err, ErrBudget) {
		t.Errorf("err = %v, want ErrBudget", err)
	}
}

// TestWideEnumerationZeroAllocsPerNode: the wide inner loop — multi-word
// enumeration plus evaluation at m = 80 — must allocate only the
// per-worker scratch, i.e. 0 allocs per visited mapping.
func TestWideEnumerationZeroAllocsPerNode(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n, m := 2, 80
	p := pipeline.Random(rng, n, 1, 10, 1, 10)
	pl := platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.1, 0.9, 1, 20)
	ev, err := mapping.NewEvaluator(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	visited := 0
	visit := func(int64, []int, []uint64, mapping.Metrics) bool {
		visited++
		return true
	}
	run := func() {
		g, err := newEngine(ev, n, m, Options{MaxEnum: math.MaxInt64})
		if err != nil {
			t.Fatal(err)
		}
		if g.stride != 2 {
			t.Fatalf("m=80 engine uses %d-word rows, want 2", g.stride)
		}
		if err := g.run(1, func(int) (pruneFunc, visitFunc) { return nil, visit }); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up
	visited = 0
	perRun := testing.AllocsPerRun(5, run)
	if visited == 0 {
		t.Fatal("no mappings visited")
	}
	// Engine struct, full set, worker scratch slices and closures: a small
	// constant. The > 10⁴ visited mappings must contribute nothing.
	if perRun > 24 {
		t.Errorf("wide enumeration allocates %.1f objects per full run over %d mappings, want a small constant (scratch only)", perRun, visited)
	}
	if perNode := perRun / float64(visited); perNode >= 0.01 {
		t.Errorf("wide inner loop allocates %.4f objects per visited mapping, want 0", perNode)
	}
}
