package mapping

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// These tests pin the bitwise contract documented at the top of
// evalmany.go: every Sibling field must equal — bit for bit, not within a
// tolerance — what the engine's incremental push/complete pair derives
// from the single-candidate Evaluator methods for the same singleton
// extension. A composed reference below replays exactly those methods in
// exactly the engine's association order.

// singletonPrefix is a randomly grown partial mapping of singleton
// intervals whose accumulators are maintained with the single-candidate
// methods precisely as search.push does.
type singletonPrefix struct {
	pre   BatchPrefix
	start int // first unassigned stage
	free  bitset.Set
}

// singleton returns the one-processor replica set {u} on m processors.
func singleton(m, u int) bitset.Set {
	s := bitset.Make(m)
	s.Add(u)
	return s
}

// growPrefix assigns `depth` singleton intervals over stages of p,
// reproducing push's latency/success recurrences for commHom or het
// platforms.
func growPrefix(rng *rand.Rand, e *Evaluator, commHom bool, depth int) singletonPrefix {
	n, m := e.NumStages(), e.NumProcs()
	sp := singletonPrefix{free: bitset.Make(m)}
	sp.free.Fill(m)
	sp.pre.Succ = 1
	prevFirst, prevLast, prevProc := 0, -1, 0
	for d := 0; d < depth && sp.start < n-1 && sp.free.Count() > 1; d++ {
		first := sp.start
		last := first + rng.Intn(n-1-first) // keep at least one stage free
		var u int
		for {
			u = rng.Intn(m)
			if sp.free.Test(u) {
				break
			}
		}
		mask := singleton(m, u)
		sp.pre.Succ *= e.SuccessFactor(mask)
		if commHom {
			commIn, compute := e.IntervalEq1Cost(first, last, mask)
			lat := sp.pre.Lat + commIn
			lat += compute
			sp.pre.Lat = lat
		} else {
			if d == 0 {
				sp.pre.Lat = e.InputSum(mask)
			} else {
				sp.pre.Lat += e.IntervalEq2Term(prevFirst, prevLast, singleton(m, prevProc), mask)
			}
		}
		prevFirst, prevLast, prevProc = first, last, u
		sp.pre.Depth = d + 1
		sp.free.Remove(u)
		sp.start = last + 1
	}
	sp.pre.PrevFirst, sp.pre.PrevLast, sp.pre.PrevProc = prevFirst, prevLast, prevProc
	return sp
}

// composedSibling replays the engine's single-candidate push (and, on the
// final stage, complete) arithmetic for the prefix extended by
// [first, last] on {u}.
func composedSibling(e *Evaluator, commHom bool, pre BatchPrefix, first, last, u int) Sibling {
	m := e.NumProcs()
	mask := singleton(m, u)
	sb := Sibling{Proc: u, Succ: pre.Succ * e.SuccessFactor(mask)}
	if commHom {
		commIn, compute := e.IntervalEq1Cost(first, last, mask)
		lat := pre.Lat + commIn
		lat += compute
		sb.Lat = lat
		sb.LB = lat
		if last == e.NumStages()-1 {
			sb.Final = lat + e.TailLatencyLB(e.NumStages())
		}
	} else {
		var lat float64
		if pre.Depth == 0 {
			lat = e.InputSum(mask)
		} else {
			lat = pre.Lat + e.IntervalEq2Term(pre.PrevFirst, pre.PrevLast, singleton(m, pre.PrevProc), mask)
		}
		sb.Lat = lat
		sb.LB = lat + e.IntervalComputeLB(first, last, mask)
		if last == e.NumStages()-1 {
			sb.Final = lat + e.IntervalEq2FinalTerm(first, last, mask)
		}
	}
	return sb
}

func checkSibling(t *testing.T, label string, got, want Sibling) {
	t.Helper()
	if got != want {
		t.Fatalf("%s: sibling %+v, composed single-candidate reference %+v", label, got, want)
	}
}

// checkBatch runs one EvaluateMany call and checks every written sibling
// against the composed single-candidate reference, plus the count and
// the ascending processor order.
func checkBatch(t *testing.T, label string, e *Evaluator, commHom bool, pre BatchPrefix, first, last int, free bitset.Set, out []Sibling) {
	t.Helper()
	nb := e.EvaluateMany(pre, first, last, free, out)
	if nb != free.Count() {
		t.Fatalf("%s: wrote %d siblings for %d free processors", label, nb, free.Count())
	}
	prev := -1
	for i := 0; i < nb; i++ {
		if out[i].Proc <= prev {
			t.Fatalf("%s: siblings out of ascending processor order", label)
		}
		prev = out[i].Proc
		checkSibling(t, label, out[i], composedSibling(e, commHom, pre, first, last, out[i].Proc))
	}
}

// TestEvaluateManyMatchesSingleCandidate: batch results must equal the
// composed single-candidate arithmetic bitwise, across platforms, depths
// and stage windows, on one-word platforms (including m = 63 and 64) and
// on multi-word free sets.
func TestEvaluateManyMatchesSingleCandidate(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(5)
		m := 2 + rng.Intn(6)
		p := pipeline.Random(rng, n, 1, 10, 0, 10)
		pls := []*platform.Platform{
			platform.RandomCommHomogeneous(rng, m, 1, 10, 0.05, 0.95, 1+rng.Float64()*4),
			platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.05, 0.95, 1, 20),
		}
		for pi, pl := range pls {
			commHom := pi == 0
			e, err := NewEvaluator(p, pl)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]Sibling, m)
			for depth := 0; depth <= 2; depth++ {
				sp := growPrefix(rng, e, commHom, depth)
				for last := sp.start; last < n; last++ {
					checkBatch(t, fmt.Sprintf("seed %d", seed), e, commHom, sp.pre, sp.start, last, sp.free, out)
				}
			}
		}
	}

	// Full-width words: m = 63 and 64 fill one word, m = 80 spans two.
	rng := rand.New(rand.NewSource(11))
	n := 4
	p := pipeline.Random(rng, n, 1, 10, 0, 10)
	for _, m := range []int{63, 64, 80} {
		for pi, pl := range []*platform.Platform{
			platform.RandomCommHomogeneous(rng, m, 1, 10, 0.05, 0.95, 2),
			platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.05, 0.95, 1, 20),
		} {
			commHom := pi == 0
			e, err := NewEvaluator(p, pl)
			if err != nil {
				t.Fatal(err)
			}
			out := make([]Sibling, m)
			label := fmt.Sprintf("m=%d commHom=%v", m, commHom)
			for depth := 0; depth <= 2; depth++ {
				sp := growPrefix(rng, e, commHom, depth)
				for last := sp.start; last < n; last++ {
					checkBatch(t, label, e, commHom, sp.pre, sp.start, last, sp.free, out)
				}
			}
			// A ragged free set spanning every word.
			fs := bitset.Make(m)
			for u := 0; u < m; u++ {
				if u%3 != 1 {
					fs.Add(u)
				}
			}
			pre := BatchPrefix{Depth: 1, Lat: 3.25, Succ: 0.75, PrevFirst: 0, PrevLast: 0, PrevProc: m - 2}
			checkBatch(t, label+" ragged", e, commHom, pre, 1, n-1, fs, out)
		}
	}
}

// TestEvaluateManyZeroAllocs: the batch evaluator must stay off the heap —
// it runs once per search node — on one-word and two-word free sets.
func TestEvaluateManyZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, m := 5, 80
	p := pipeline.Random(rng, n, 1, 10, 0, 10)
	pl := platform.RandomFullyHeterogeneous(rng, m, 1, 10, 0.05, 0.95, 1, 20)
	e, err := NewEvaluator(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]Sibling, m)
	pre := BatchPrefix{Depth: 1, Lat: 1, Succ: 1, PrevLast: 0, PrevProc: 2}

	narrowPl := platform.RandomCommHomogeneous(rng, 16, 1, 10, 0.05, 0.95, 2)
	ne, err := NewEvaluator(p, narrowPl)
	if err != nil {
		t.Fatal(err)
	}
	oneWord := bitset.Set{0xffff}
	if allocs := testing.AllocsPerRun(100, func() {
		ne.EvaluateMany(pre, 1, n-1, oneWord, out)
	}); allocs != 0 {
		t.Fatalf("one-word EvaluateMany allocates %.1f times per call", allocs)
	}

	fs := bitset.Make(m)
	for u := 0; u < m; u++ {
		fs.Add(u)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		e.EvaluateMany(pre, 1, n-1, fs, out)
	}); allocs != 0 {
		t.Fatalf("two-word EvaluateMany allocates %.1f times per call", allocs)
	}
}
