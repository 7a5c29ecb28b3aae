package exact

import (
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/mapping"
)

// This file is the shared-incumbent machinery of the parallel search: the
// single global best candidate every fan-out worker prunes against, and
// the lock-free bound that makes reading it one atomic load per node.
//
// Determinism invariants (the contract the equivalence property tests
// pin; violating any of them makes results depend on worker count or
// scheduling):
//
//  1. Strict-better pruning. Subtrees are cut only when their lower bound
//     is provably worse than the published bound — beyond latencyTol for
//     latency objectives (latencyStrictlyWorse), and never on ties. A
//     tie-cutting bound would let worker A's incumbent suppress the
//     equal-metric candidate worker B would have reported, and the
//     task-order tie-break below needs to see both.
//  2. Task-order tie-break. offer resolves equal-metric candidates toward
//     the smaller first-interval task index, and tasks are enumerated in
//     a fixed total order with each subtree explored sequentially by one
//     worker. The winning candidate is therefore a pure function of the
//     instance, regardless of how many workers raced or which of them
//     published first.
//  3. Monotone bound. The published objective only ever decreases
//     (atomicMin), so a worker reading a stale value prunes less, never
//     more, than a fully synchronized one — lateness costs work, not
//     correctness, and the final merge is unaffected.
//
// Together these make the returned mapping AND metrics bitwise-identical
// for every Workers setting, with or without mid-run publication races.

// atomicMin is a lock-free monotone float64 minimum used as the shared
// pruning bound.
type atomicMin struct{ bits atomic.Uint64 }

func newAtomicMin() *atomicMin {
	a := &atomicMin{}
	a.bits.Store(math.Float64bits(math.Inf(1)))
	return a
}

func (a *atomicMin) load() float64 { return math.Float64frombits(a.bits.Load()) }

func (a *atomicMin) min(x float64) {
	for {
		old := a.bits.Load()
		if math.Float64frombits(old) <= x {
			return
		}
		if a.bits.CompareAndSwap(old, math.Float64bits(x)) {
			return
		}
	}
}

// incumbent tracks the best candidate across workers with a deterministic
// total order: the solver's metric comparator first, then the task index
// of discovery (so the result is independent of worker count and
// scheduling). The objective value is mirrored into an atomicMin for
// cheap lock-free pruning reads.
type incumbent struct {
	mu     sync.Mutex
	found  bool
	met    mapping.Metrics
	task   int64
	ends   []int
	masks  []uint64 // flat, stride words per interval
	stride int
	nEnds  int
	bound  *atomicMin
	cmp    func(a, b mapping.Metrics) int // <0: a strictly better
	objOf  func(met mapping.Metrics) float64
}

func newIncumbent(n, stride int, cmp func(a, b mapping.Metrics) int, objOf func(mapping.Metrics) float64) *incumbent {
	return &incumbent{
		ends:   make([]int, n),
		masks:  make([]uint64, n*stride),
		stride: stride,
		bound:  newAtomicMin(),
		cmp:    cmp,
		objOf:  objOf,
	}
}

// offer proposes a feasible candidate. The fast path rejects without the
// lock when the objective is strictly above the current bound.
func (inc *incumbent) offer(task int64, ends []int, masks []uint64, met mapping.Metrics) {
	if inc.objOf(met) > inc.bound.load() {
		return
	}
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if inc.found {
		c := inc.cmp(met, inc.met)
		if c > 0 || (c == 0 && task >= inc.task) {
			return
		}
	}
	inc.found = true
	inc.met = met
	inc.task = task
	inc.nEnds = copy(inc.ends, ends)
	copy(inc.masks, masks)
	inc.bound.min(inc.objOf(met))
}

// result materializes the winning candidate.
func (inc *incumbent) result(ev *mapping.Evaluator) (Result, error) {
	inc.mu.Lock()
	defer inc.mu.Unlock()
	if !inc.found {
		return Result{}, ErrInfeasible
	}
	mp := ev.ToMapping(inc.ends[:inc.nEnds], inc.masks[:inc.nEnds*inc.stride])
	return Result{Mapping: mp, Metrics: inc.met}, nil
}

// latencyStrictlyWorse reports lb > bound beyond the shared latency
// tolerance, i.e. the subtree is provably worse and safe to cut even in
// the presence of float accumulation ties.
func latencyStrictlyWorse(lb, bound float64) bool {
	return lb > bound+latencyTol*math.Max(1, math.Abs(bound))
}
