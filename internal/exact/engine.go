package exact

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/mapping"
	"repro/internal/telemetry"
)

// This file is the shared enumeration engine behind the four exact
// solvers and the throughput package's tri-criteria enumeration. It
// replaces the per-node [][]int materialization of the original
// enumerators with interval end boundaries + replica bitmasks, evaluates
// candidates incrementally through mapping.Evaluator with zero heap
// allocations, supports branch-and-bound pruning (prefix latency lower
// bound / monotone failure-probability prefix against an incumbent or a
// threshold), and fans the search out over worker goroutines by the
// choice of the first interval — its last stage and its replica set —
// exactly the decomposition ParetoFrontParallel pioneered.
//
// Replica sets are internal/bitset rows of engine.stride words held in
// flat per-depth buffers allocated once per worker, so any processor
// count is supported; visitors receive masks as a flat []uint64 buffer of
// engine.stride words per interval.
//
// Task decomposition: the search fans out by (first-interval end, highest
// replica id) — n·m tasks for every m — and enumerates, within task
// (end, h), the first-interval replica sets whose highest processor is h:
// {h} ∪ T for every T ⊆ {0, …, h−1}, T walked in ascending integer order
// (without replication, just {h}). First-interval sets are therefore
// visited in ascending integer order of their bitmask, task by task.
//
// Determinism: every complete mapping is reported together with the index
// of the first-interval subtree (task) it belongs to, tasks are
// enumerated in a fixed order, and each subtree is explored sequentially
// by exactly one worker. Incumbent pruning is strict (subtrees are cut
// only when provably worse than the incumbent, never on ties), so
// merging per-worker results in task order yields the same answer for
// every worker count.

// pruneFunc decides whether to cut the subtree below a partial mapping.
// lbLat is a lower bound on the latency of every completion; prefixFP is
// the failure probability of the already-assigned intervals (a lower
// bound as well: FP is non-decreasing in added intervals).
type pruneFunc func(lbLat, prefixFP float64) bool

// visitFunc receives each complete enumerated mapping: the subtree index
// it was found in, its boundary representation (reused between calls —
// copy to retain; masks is a flat buffer of engine.stride words per
// interval), and its metrics (zero when the engine runs without an
// Evaluator). Returning false stops the whole enumeration early.
type visitFunc func(task int64, ends []int, masks []uint64, met mapping.Metrics) bool

// engine carries the state shared by all workers of one enumeration.
type engine struct {
	ev          *mapping.Evaluator // nil: enumerate only, no metrics/pruning
	n, m        int
	stride      int        // bitset words per replica set
	full        bitset.Set // the all-processors set
	replication bool
	commHom     bool

	ctx        context.Context // nil: never canceled
	budget     int64
	counter    atomic.Int64 // complete mappings evaluated
	abort      atomic.Bool
	overBudget atomic.Bool
	canceled   atomic.Bool
	rec        *telemetry.Recorder // nil: no telemetry

	nextTask   atomic.Int64
	totalTasks int64 // n·m: (first-interval end, highest replica id)

	stats searchStats // aggregated worker-local counters (flushed at worker exit)
}

// searchStats aggregates the per-worker search telemetry. Workers count
// into plain int64 locals and flush once when they exit, so the hot path
// never touches shared cache lines; engine.run folds the aggregate into
// the telemetry registry after the fan-out completes.
type searchStats struct {
	nodes      atomic.Int64 // candidate nodes scored (batch siblings + pushes)
	prunes     atomic.Int64 // subtrees cut by the shared bound / constraint
	batchCalls atomic.Int64 // EvaluateMany block calls
	batchCands atomic.Int64 // siblings scored across those blocks
}

// localStats is the per-worker face of searchStats.
type localStats struct {
	nodes, prunes, batchCalls, batchCands int64
}

func (g *engine) flushStats(l *localStats) {
	g.stats.nodes.Add(l.nodes)
	g.stats.prunes.Add(l.prunes)
	g.stats.batchCalls.Add(l.batchCalls)
	g.stats.batchCands.Add(l.batchCands)
}

func newEngine(ev *mapping.Evaluator, n, m int, opts Options) (*engine, error) {
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("exact: need n>0 and m>0, got n=%d m=%d", n, m)
	}
	g := &engine{
		ev:          ev,
		n:           n,
		m:           m,
		stride:      bitset.Words(m),
		replication: opts.Replication,
		ctx:         opts.Ctx,
		budget:      opts.maxEnum(),
		rec:         opts.Recorder,
	}
	if ev != nil {
		g.commHom = ev.CommHom()
	}
	g.full = bitset.Make(m)
	g.full.Fill(m)
	g.totalTasks = int64(n) * int64(m)
	return g, nil
}

// run drains the task space with the given worker count. newWorker is
// invoked once per worker (with indices 0..workers-1) and returns that
// worker's prune and visit hooks; prune may be nil.
//
// When the engine carries a cancellable context, a watcher goroutine
// flips the abort flag as soon as the context is done; every worker
// checks that flag on each recursion entry and after each pruned
// candidate, so cancellation latency is
// bounded by one sibling block (the m candidates a single EvaluateMany
// call scores), not one subtree. A canceled run returns an error
// wrapping both ErrCanceled and the context's cause.
func (g *engine) run(workers int, newWorker func(w int) (pruneFunc, visitFunc)) error {
	if g.rec != nil {
		// One-shot accounting per run: the inner loop never touches the
		// recorder, so the nil-recorder path and the hot path are identical.
		started := time.Now()
		defer func() {
			g.rec.Counter("exact_runs_total").Inc()
			g.rec.Counter("exact_enumerated_total").Add(g.counter.Load())
			g.rec.Counter("exact_nodes_total").Add(g.stats.nodes.Load())
			g.rec.Counter("exact_incumbent_prunes_total").Add(g.stats.prunes.Load())
			g.rec.Counter("exact_batch_calls_total").Add(g.stats.batchCalls.Load())
			g.rec.Counter("exact_batch_candidates_total").Add(g.stats.batchCands.Load())
			g.rec.Observe("exact_search_duration", time.Since(started))
		}()
	}
	if workers <= 0 {
		workers = defaultWorkers()
	}
	if int64(workers) > g.totalTasks {
		workers = int(g.totalTasks)
	}
	var stopWatch chan struct{}
	if g.ctx != nil {
		if done := g.ctx.Done(); done != nil {
			stopWatch = make(chan struct{})
			go func() {
				select {
				case <-done:
					g.canceled.Store(true)
					g.abort.Store(true)
				case <-stopWatch:
				}
			}()
		}
	}
	if workers <= 1 {
		prune, visit := newWorker(0)
		g.worker(prune, visit)
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			prune, visit := newWorker(w)
			wg.Add(1)
			go func() {
				defer wg.Done()
				g.worker(prune, visit)
			}()
		}
		wg.Wait()
	}
	if stopWatch != nil {
		close(stopWatch)
	}
	if g.canceled.Load() {
		return canceledErr(g.ctx)
	}
	if g.overBudget.Load() {
		return ErrBudget
	}
	return nil
}

// search is one worker's private state. All buffers are indexed by depth
// (the number of intervals already chosen) so descending and backtracking
// never allocate and never need undo writes; mask-valued state uses rows
// of eng.stride words.
type search struct {
	eng   *engine
	prune pruneFunc
	visit visitFunc
	task  int64

	ends  []int
	masks []uint64 // chosen replica sets, row d = interval d
	used  []uint64 // used[d] = union of rows 0..d-1, row-indexed like masks
	free  []uint64 // per-depth scratch: processors still unassigned
	sub   []uint64 // per-depth scratch: the subset iterator
	iterT []uint64 // task-level scratch: the T iterator
	// sib is the batch-evaluation scratch: every non-replication level
	// scores all singleton siblings of one (start, end) prefix through a
	// single Evaluator.EvaluateMany call (m entries, allocated once per
	// worker, so the per-node path stays allocation-free).
	sib []mapping.Sibling
	// prevProc[d] is interval d's sole replica on non-replication levels,
	// tracked so the batch prefix never has to scan mask rows for it.
	prevProc []int
	localStats
	// lat[d] is the charged latency after d intervals: on comm-hom
	// platforms the full Eq. (1) terms of intervals 0..d-1; on fully
	// heterogeneous platforms the Eq. (2) input sum plus the full terms of
	// intervals 0..d-2 (interval d-1's term needs its successor set and is
	// charged when that successor is chosen).
	lat []float64
	// succ[d] is the success-probability product over intervals 0..d-1.
	succ []float64
}

func (s *search) maskRow(d int) bitset.Set {
	return bitset.Set(s.masks[d*s.eng.stride : (d+1)*s.eng.stride])
}

func (s *search) usedRow(d int) bitset.Set {
	return bitset.Set(s.used[d*s.eng.stride : (d+1)*s.eng.stride])
}

func (s *search) freeRow(d int) bitset.Set {
	return bitset.Set(s.free[d*s.eng.stride : (d+1)*s.eng.stride])
}

func (s *search) subRow(d int) bitset.Set {
	return bitset.Set(s.sub[d*s.eng.stride : (d+1)*s.eng.stride])
}

// worker claims (end, highest replica id) first-interval subtrees until
// the space or the budget is exhausted.
func (g *engine) worker(prune pruneFunc, visit visitFunc) {
	W := g.stride
	// The mask rows and the float accumulators are carved out of one
	// backing array each, keeping the per-worker setup to a few
	// allocations.
	rows := make([]uint64, (4*g.n+4)*W)
	take := func(k int) []uint64 {
		r := rows[: k*W : k*W]
		rows = rows[k*W:]
		return r
	}
	acc := make([]float64, 2*(g.n+1))
	s := &search{
		eng:   g,
		prune: prune,
		visit: visit,
		ends:  make([]int, g.n),
		masks: take(g.n),
		used:  take(g.n + 1),
		free:  take(g.n + 1),
		sub:   take(g.n + 1),
		iterT: take(1),
		lat:   acc[: g.n+1 : g.n+1],
		succ:  acc[g.n+1:],
	}
	s.succ[0] = 1
	if g.ev != nil && !g.replication {
		s.sib = make([]mapping.Sibling, g.m)
		s.prevProc = make([]int, g.n)
	}
	defer g.flushStats(&s.localStats)
	firstSub := bitset.Set(s.sub[:W]) // depth-0 subset scratch
	iterT := bitset.Set(s.iterT)
	for !g.abort.Load() {
		t := g.nextTask.Add(1) - 1
		if t >= g.totalTasks {
			return
		}
		end := int(t / int64(g.m))
		h := int(t % int64(g.m))
		s.task = t
		if !g.replication {
			// Singleton first interval {h}; it equals the full set only
			// when m = 1, in which case stages must not remain.
			if end < g.n-1 && g.m == 1 {
				continue
			}
			firstSub.Zero()
			firstSub.Add(h)
			if s.prevProc != nil {
				s.prevProc[0] = h
			}
			if !s.explore(0, 0, end, firstSub) {
				return
			}
			continue
		}
		// Replication: every first-interval set with highest replica h is
		// {h} ∪ T, T ⊆ {0, …, h−1}, T in ascending integer order (T = ∅ —
		// the singleton {h} — first).
		iterT.Zero()
		for {
			firstSub.Copy(iterT)
			firstSub.Add(h)
			if !(end < g.n-1 && firstSub.Equal(g.full)) {
				if !s.explore(0, 0, end, firstSub) {
					return
				}
			}
			if !incBelow(iterT, h) {
				break
			}
		}
	}
}

// incBelow advances t, a subset of {0, …, h−1}, to the next one in
// ascending integer order (binary increment) and reports false, leaving t
// empty, once every subset has been visited.
func incBelow(t bitset.Set, h int) bool {
	for i := 0; i < h; i++ {
		if !t.Test(i) {
			t.Add(i)
			return true
		}
		t.Remove(i)
	}
	return false
}

// explore pushes interval d = [first, end] on replica set sub and, when
// the subtree survives pruning, recurses into the remaining stages. It
// returns false when the whole enumeration must stop (the engine-level
// abort), which it checks on pruned candidates too: a replica-set walk
// whose every candidate is pruned must still stop promptly.
func (s *search) explore(d, first, end int, sub bitset.Set) bool {
	if !s.push(d, first, end, sub) {
		return !s.eng.abort.Load() // pruned, keep enumerating siblings
	}
	s.usedRow(d+1).Or(s.usedRow(d), sub)
	return s.rec(end+1, d+1)
}

// push records interval d = [first, end] on replica set sub, extends the
// incremental accumulators, and applies pruning. It reports whether the
// subtree should be explored. The accumulation mirrors the slice-based
// evaluators addition for addition so complete-node metrics are bitwise
// identical to mapping.Evaluate.
func (s *search) push(d, first, end int, sub bitset.Set) bool {
	ev := s.eng.ev
	s.ends[d] = end
	s.maskRow(d).Copy(sub)
	if ev == nil {
		return true
	}
	s.nodes++
	s.succ[d+1] = s.succ[d] * ev.SuccessFactor(sub)
	var newLat, lb float64
	if s.eng.commHom {
		commIn, compute := ev.IntervalEq1Cost(first, end, sub)
		newLat = s.lat[d] + commIn
		newLat += compute
		lb = newLat + ev.TailLatencyLB(end+1)
	} else {
		if d == 0 {
			newLat = ev.InputSum(sub)
		} else {
			prevFirst := 0
			if d > 1 {
				prevFirst = s.ends[d-2] + 1
			}
			newLat = s.lat[d] + ev.IntervalEq2Term(prevFirst, s.ends[d-1], s.maskRow(d-1), sub)
		}
		lb = newLat + ev.IntervalComputeLB(first, end, sub) + ev.TailLatencyLB(end+1)
	}
	s.lat[d+1] = newLat
	if s.prune != nil && s.prune(lb, 1-s.succ[d+1]) {
		s.prunes++
		return false
	}
	return true
}

// rec extends the partial mapping (stages [0, start) assigned, depth
// intervals chosen, usedRow(depth) enrolled) with every completion. It
// returns false when the whole enumeration must stop.
//
// Non-replication levels with an evaluator run the batch path: one
// EvaluateMany call scores every singleton sibling of the (start, end)
// prefix — sharing the previous interval's Eq. (2) term, the Eq. (1)
// input transfer and the work window across the block — and final-stage
// blocks complete inline, skipping the per-candidate push/rec/complete
// chain entirely. Candidate order, pruning decisions, budget charging and
// visit order are identical to the single-candidate path, so outputs are
// bitwise-unchanged.
func (s *search) rec(start, depth int) bool {
	g := s.eng
	if g.abort.Load() {
		return false
	}
	if start == g.n {
		return s.complete(depth)
	}
	free := s.freeRow(depth)
	free.AndNot(g.full, s.usedRow(depth))
	if free.IsZero() {
		return true
	}
	last := g.n - 1
	if g.replication || g.ev == nil {
		for end := start; end <= last; end++ {
			if g.replication {
				sub := s.subRow(depth)
				sub.Copy(free)
				for {
					if !(end < last && sub.Equal(free)) {
						if !s.explore(depth, start, end, sub) {
							return false
						}
					}
					if !sub.DecAnd(free) {
						break
					}
				}
			} else {
				sub := s.subRow(depth)
				freeIsSingleton := free.Count() == 1
				for u := free.NextOne(0); u >= 0; u = free.NextOne(u + 1) {
					if end < last && freeIsSingleton {
						continue // sub == free: no processor left for the rest
					}
					sub.Zero()
					sub.Add(u)
					if !s.explore(depth, start, end, sub) {
						return false
					}
				}
			}
		}
		return true
	}
	ev := g.ev
	pre := mapping.BatchPrefix{Depth: depth, Lat: s.lat[depth], Succ: s.succ[depth]}
	if !g.commHom {
		// rec always runs at depth ≥ 1 (the first interval comes from the
		// task loop), so interval depth−1 exists and is a singleton.
		pre.PrevLast = s.ends[depth-1]
		if depth > 1 {
			pre.PrevFirst = s.ends[depth-2] + 1
		}
		pre.PrevProc = s.prevProc[depth-1]
	}
	freeSingleton := free.Count() == 1
	for end := start; end <= last; end++ {
		if end < last && freeSingleton {
			continue // the lone free processor must serve the final interval
		}
		nb := ev.EvaluateMany(pre, start, end, free, s.sib)
		s.batchCalls++
		s.batchCands += int64(nb)
		s.nodes += int64(nb)
		if end == last {
			if !s.completeBatch(depth, end, nb) {
				return false
			}
			continue
		}
		tail := ev.TailLatencyLB(end + 1)
		for i := 0; i < nb; i++ {
			sb := &s.sib[i]
			if s.prune != nil && s.prune(sb.LB+tail, 1-sb.Succ) {
				s.prunes++
				continue
			}
			s.ends[depth] = end
			mrow := s.maskRow(depth)
			mrow.Zero()
			mrow.Add(sb.Proc)
			s.prevProc[depth] = sb.Proc
			s.lat[depth+1] = sb.Lat
			s.succ[depth+1] = sb.Succ
			s.usedRow(depth+1).Or(s.usedRow(depth), mrow)
			if !s.rec(end+1, depth+1) {
				return false
			}
		}
	}
	return true
}

// completeBatch finalizes a final-stage sibling block inline: each
// surviving candidate is budget-charged and visited with the metrics the
// batch evaluation already produced — bitwise those of the push/complete
// chain it replaces.
func (s *search) completeBatch(depth, end, nb int) bool {
	g := s.eng
	tailN := g.ev.TailLatencyLB(g.n)
	var met mapping.Metrics
	for i := 0; i < nb; i++ {
		sb := &s.sib[i]
		if s.prune != nil && s.prune(sb.LB+tailN, 1-sb.Succ) {
			s.prunes++
			continue
		}
		if g.counter.Add(1) > g.budget {
			g.overBudget.Store(true)
			g.abort.Store(true)
			return false
		}
		met.Latency = sb.Final
		met.FailureProb = 1 - sb.Succ
		s.ends[depth] = end
		mrow := s.maskRow(depth)
		mrow.Zero()
		mrow.Add(sb.Proc)
		if !s.visit(s.task, s.ends[:depth+1], s.masks[:(depth+1)*g.stride], met) {
			g.abort.Store(true)
			return false
		}
	}
	return true
}

// complete finalizes the candidate's metrics and hands it to the visitor,
// charging the enumeration budget.
func (s *search) complete(depth int) bool {
	g := s.eng
	if g.counter.Add(1) > g.budget {
		g.overBudget.Store(true)
		g.abort.Store(true)
		return false
	}
	var met mapping.Metrics
	if ev := g.ev; ev != nil {
		if g.commHom {
			met.Latency = s.lat[depth] + ev.TailLatencyLB(g.n) // exact δ_n/b
		} else {
			first := 0
			if depth > 1 {
				first = s.ends[depth-2] + 1
			}
			met.Latency = s.lat[depth] + ev.IntervalEq2FinalTerm(first, s.ends[depth-1], s.maskRow(depth-1))
		}
		met.FailureProb = 1 - s.succ[depth]
	}
	if !s.visit(s.task, s.ends[:depth], s.masks[:depth*g.stride], met) {
		g.abort.Store(true)
		return false
	}
	return true
}

// fillMaskedMapping converts a boundary representation (flat masks,
// stride words per interval) into dst without allocating: dst's slices
// are resliced and the replica ids written into procBuf (which must hold
// at least m ints).
func fillMaskedMapping(dst *mapping.Mapping, procBuf []int, ends []int, masks []uint64, stride int) *mapping.Mapping {
	dst.Intervals = dst.Intervals[:0]
	dst.Alloc = dst.Alloc[:0]
	first := 0
	used := 0
	for j, end := range ends {
		dst.Intervals = append(dst.Intervals, mapping.Interval{First: first, Last: end})
		row := bitset.Set(masks[j*stride : (j+1)*stride])
		out := row.AppendBits(procBuf[used:used])
		used += len(out)
		dst.Alloc = append(dst.Alloc, out[:len(out):len(out)])
		first = end + 1
	}
	return dst
}
