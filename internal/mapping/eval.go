package mapping

import (
	"math"
	"math/bits"

	"repro/internal/bitset"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// Evaluator is the zero-allocation evaluation engine behind the exact
// solvers. It precomputes, once per (pipeline, platform) pair, everything
// the latency and failure-probability formulas need — the Eq. (1) / Eq. (2)
// dispatch, the single bandwidth of communication-homogeneous platforms,
// work prefix sums (via the pipeline), and suffix latency lower bounds for
// branch-and-bound — and then evaluates candidate mappings represented as
// interval end boundaries plus per-interval replica sets without any heap
// allocation and without Validate (enumerated candidates are valid by
// construction; the public Evaluate path keeps full validation).
//
// Replica sets are internal/bitset rows of Stride() = bitset.Words(m)
// words, for any m. A complete candidate is (ends, words) where ends[j] is
// the last stage of interval j and words is a flat row-major buffer of
// Stride() words per interval: row j is words[j*stride : (j+1)*stride].
//
// The arithmetic deliberately mirrors LatencyEq1, LatencyEq2 and
// FailureProb operation for operation, in the same order, so that the
// metrics are bitwise identical to the slice-based evaluators: processors
// are visited in ascending index order (word by word, TrailingZeros
// within a word), and the methods only read their arguments, so none of
// them allocates.
type Evaluator struct {
	p  *pipeline.Pipeline
	pl *platform.Platform

	n, m    int
	stride  int // bitset words per replica set
	commHom bool
	b       float64 // single bandwidth when commHom

	// lbTail[start] is a lower bound on the latency contributed by stages
	// [start, n) plus the final output transfer, valid for every completion
	// of a partial mapping whose charged prefix ends at stage start−1 (see
	// TailLatencyLB). lbTail[n] is the exact final-output term on
	// communication-homogeneous platforms.
	lbTail []float64
}

// NewEvaluator validates the instance once and builds the precomputed
// state. Platforms of any width are accepted.
func NewEvaluator(p *pipeline.Pipeline, pl *platform.Platform) (*Evaluator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := pl.Validate(); err != nil {
		return nil, err
	}
	n, m := p.NumStages(), pl.NumProcs()
	e := &Evaluator{p: p, pl: pl, n: n, m: m, stride: bitset.Words(m)}
	e.b, e.commHom = pl.CommHomogeneous()

	maxSpeed := pl.Speed[0]
	for _, s := range pl.Speed[1:] {
		if s > maxSpeed {
			maxSpeed = s
		}
	}
	e.lbTail = make([]float64, n+1)
	if e.commHom {
		e.lbTail[n] = p.Delta[n] / e.b
		for start := n - 1; start >= 0; start-- {
			// The next interval receives its input at least once (k ≥ 1),
			// the remaining work runs at best on the fastest processor, and
			// the final output must still leave the platform.
			e.lbTail[start] = p.Delta[start]/e.b + p.Work(start, n-1)/maxSpeed + p.Delta[n]/e.b
		}
	} else {
		maxB := math.Inf(1) // m == 1: no inter-processor link is ever used
		if m > 1 {
			maxB = 0
			for u := 0; u < m; u++ {
				for v := 0; v < m; v++ {
					if u != v && pl.B[u][v] > maxB {
						maxB = pl.B[u][v]
					}
				}
			}
		}
		maxBOut := pl.BOut[0]
		for _, bo := range pl.BOut[1:] {
			if bo > maxBOut {
				maxBOut = bo
			}
		}
		maxBIn := pl.BIn[0]
		for _, bi := range pl.BIn[1:] {
			if bi > maxBIn {
				maxBIn = bi
			}
		}
		e.lbTail[n] = p.Delta[n] / maxBOut
		for start := n - 1; start >= 0; start-- {
			// δ_start crosses an inter-processor link, except at start = 0
			// where it is the initial input over a BIn link.
			cross := maxB
			if start == 0 {
				cross = maxBIn
			}
			e.lbTail[start] = p.Delta[start]/cross + p.Work(start, n-1)/maxSpeed + p.Delta[n]/maxBOut
		}
	}
	return e, nil
}

// NumStages returns n.
func (e *Evaluator) NumStages() int { return e.n }

// NumProcs returns m.
func (e *Evaluator) NumProcs() int { return e.m }

// Stride returns the number of bitset words per replica set
// (bitset.Words(m)).
func (e *Evaluator) Stride() int { return e.stride }

// CommHom reports whether the platform is communication homogeneous, i.e.
// whether latency evaluation dispatches to Eq. (1) or Eq. (2).
func (e *Evaluator) CommHom() bool { return e.commHom }

// TailLatencyLB returns a lower bound on the latency still to be paid by
// any completion of a partial mapping covering stages [0, start): the
// input transfer of the next interval (or the pending interval's outgoing
// transfer on heterogeneous platforms), the remaining work on the fastest
// processor, and the final output transfer. TailLatencyLB(n) is the final
// output term alone.
func (e *Evaluator) TailLatencyLB(start int) float64 { return e.lbTail[start] }

// Row returns interval j's replica set within a flat stride-words buffer.
func Row(words []uint64, stride, j int) bitset.Set {
	return bitset.Set(words[j*stride : (j+1)*stride])
}

// Eval computes both metrics of the candidate (ends, words). The candidate
// must be valid by construction — consecutive non-empty intervals with
// ends[len−1] == n−1 and pairwise-disjoint non-empty replica sets. Zero
// heap allocations.
func (e *Evaluator) Eval(ends []int, words []uint64) Metrics {
	return Metrics{Latency: e.Latency(ends, words), FailureProb: e.FailureProb(ends, words)}
}

// Latency dispatches to the Eq. (1) or Eq. (2) evaluation.
func (e *Evaluator) Latency(ends []int, words []uint64) float64 {
	if e.commHom {
		return e.latencyEq1(ends, words)
	}
	return e.latencyEq2(ends, words)
}

func (e *Evaluator) latencyEq1(ends []int, words []uint64) float64 {
	total := 0.0
	first := 0
	for j, end := range ends {
		commIn, compute := e.IntervalEq1Cost(first, end, Row(words, e.stride, j))
		total += commIn
		total += compute
		first = end + 1
	}
	total += e.lbTail[e.n] // exact δ_n/b on comm-hom platforms
	return total
}

func (e *Evaluator) latencyEq2(ends []int, words []uint64) float64 {
	total := e.InputSum(Row(words, e.stride, 0))
	first := 0
	last := len(ends) - 1
	for j, end := range ends {
		if j == last {
			total += e.IntervalEq2FinalTerm(first, end, Row(words, e.stride, j))
		} else {
			total += e.IntervalEq2Term(first, end, Row(words, e.stride, j), Row(words, e.stride, j+1))
		}
		first = end + 1
	}
	return total
}

// FailureProb computes 1 − Π_j (1 − Π_{u∈row j} fp_u) with the same
// operation order as the slice-based FailureProb.
func (e *Evaluator) FailureProb(ends []int, words []uint64) float64 {
	success := 1.0
	for j := range ends {
		success *= e.SuccessFactor(Row(words, e.stride, j))
	}
	return 1 - success
}

// SuccessFactor returns 1 − Π_{u∈mask} fp_u, the per-interval success
// probability factor.
func (e *Evaluator) SuccessFactor(mask bitset.Set) float64 {
	qj := 1.0
	for w, word := range mask {
		base := w * bitset.WordBits
		for bm := word; bm != 0; bm &= bm - 1 {
			qj *= e.pl.FailProb[base+bits.TrailingZeros64(bm)]
		}
	}
	return 1 - qj
}

// IntervalEq1Cost returns the two Eq. (1) latency terms of one interval —
// the serialized input transfer k·δ_first/b and the computation on the
// slowest replica — as separate addends so callers accumulate them in the
// same order as LatencyEq1.
func (e *Evaluator) IntervalEq1Cost(first, last int, mask bitset.Set) (commIn, compute float64) {
	kj := float64(mask.Count())
	commIn = kj * e.p.Delta[first] / e.b
	compute = e.p.Work(first, last) / e.MinSpeed(mask)
	return commIn, compute
}

// MinSpeed returns the speed of the slowest processor in mask.
func (e *Evaluator) MinSpeed(mask bitset.Set) float64 {
	slowest := math.Inf(1)
	for w, word := range mask {
		base := w * bitset.WordBits
		for bm := word; bm != 0; bm &= bm - 1 {
			if s := e.pl.Speed[base+bits.TrailingZeros64(bm)]; s < slowest {
				slowest = s
			}
		}
	}
	return slowest
}

// InputSum returns Σ_{u∈mask} δ_0/b_{in,u}, the Eq. (2) input term of the
// first interval.
func (e *Evaluator) InputSum(mask bitset.Set) float64 {
	total := 0.0
	for w, word := range mask {
		base := w * bitset.WordBits
		for bm := word; bm != 0; bm &= bm - 1 {
			total += e.p.Delta[0] / e.pl.BIn[base+bits.TrailingZeros64(bm)]
		}
	}
	return total
}

// IntervalEq2Term returns the Eq. (2) term of a non-final interval
// [first, last] replicated on mask, sending its output to the replicas in
// next: max_{u∈mask} [ W/s_u + Σ_{v∈next} δ_{last+1}/b_{u,v} ].
func (e *Evaluator) IntervalEq2Term(first, last int, mask, next bitset.Set) float64 {
	work := e.p.Work(first, last)
	out := e.p.Delta[last+1]
	worst := math.Inf(-1)
	for w, word := range mask {
		base := w * bitset.WordBits
		for bm := word; bm != 0; bm &= bm - 1 {
			u := base + bits.TrailingZeros64(bm)
			term := work / e.pl.Speed[u]
			for nw, nword := range next {
				nbase := nw * bitset.WordBits
				for nm := nword; nm != 0; nm &= nm - 1 {
					term += out / e.pl.B[u][nbase+bits.TrailingZeros64(nm)]
				}
			}
			if term > worst {
				worst = term
			}
		}
	}
	return worst
}

// IntervalEq2FinalTerm is IntervalEq2Term for the last interval, whose
// outgoing transfer goes to P_out: max_{u∈mask} [ W/s_u + δ_n/b_{u,out} ].
func (e *Evaluator) IntervalEq2FinalTerm(first, last int, mask bitset.Set) float64 {
	work := e.p.Work(first, last)
	out := e.p.Delta[e.n]
	worst := math.Inf(-1)
	for w, word := range mask {
		base := w * bitset.WordBits
		for bm := word; bm != 0; bm &= bm - 1 {
			u := base + bits.TrailingZeros64(bm)
			term := work/e.pl.Speed[u] + out/e.pl.BOut[u]
			if term > worst {
				worst = term
			}
		}
	}
	return worst
}

// IntervalComputeLB returns a lower bound on the Eq. (2) term of a pending
// interval whose successor replica set is not yet known: the exact compute
// part W/min_{u∈mask} s_u (every completion's term is at least this).
func (e *Evaluator) IntervalComputeLB(first, last int, mask bitset.Set) float64 {
	return e.p.Work(first, last) / e.MinSpeed(mask)
}

// ToMapping materializes the candidate as a regular *Mapping (this
// allocates; call it only for candidates worth keeping).
func (e *Evaluator) ToMapping(ends []int, words []uint64) *Mapping {
	m := &Mapping{
		Intervals: make([]Interval, len(ends)),
		Alloc:     make([][]int, len(ends)),
	}
	first := 0
	for j, end := range ends {
		m.Intervals[j] = Interval{First: first, Last: end}
		row := Row(words, e.stride, j)
		m.Alloc[j] = row.AppendBits(make([]int, 0, row.Count()))
		first = end + 1
	}
	return m
}

// BoundaryRep converts a mapping into the flat boundary representation
// with the given stride. The mapping is not validated; pair with
// Mapping.Validate (as EvaluateMapping does).
func BoundaryRep(m *Mapping, stride int) (ends []int, words []uint64) {
	ends = make([]int, len(m.Intervals))
	words = make([]uint64, len(m.Intervals)*stride)
	for j, iv := range m.Intervals {
		ends[j] = iv.Last
		row := Row(words, stride, j)
		for _, u := range m.Alloc[j] {
			row.Add(u)
		}
	}
	return ends, words
}

// EvaluateMapping validates m against the evaluator's instance and scores
// it through the precomputed state. It returns the same metrics as the
// package-level Evaluate but skips re-deriving the platform dispatch on
// every call, so long-lived sessions evaluating many mappings against one
// (pipeline, platform) pair amortize the precomputation.
func (e *Evaluator) EvaluateMapping(m *Mapping) (Metrics, error) {
	if err := m.Validate(e.n, e.m); err != nil {
		return Metrics{}, err
	}
	ends, words := BoundaryRep(m, e.stride)
	return e.Eval(ends, words), nil
}
