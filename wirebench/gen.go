package main

import (
	"math/rand/v2"
	"strconv"

	"repro"
)

// Instance generation and request-body encoding. Every value is drawn from
// a PCG stream keyed by (seed, stream), so one seed always yields the same
// bodies, byte for byte, whatever the client interleaving.

// newRand returns the deterministic random stream for one (seed, stream)
// pair. Streams are disjoint by construction of the caller's stream ids.
func newRand(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// interval is a half-open range [lo, hi) that a parameter is drawn from.
type interval struct{ lo, hi float64 }

func (s interval) draw(rng *rand.Rand) float64 { return s.lo + rng.Float64()*(s.hi-s.lo) }

// ranges are the parameter distributions of a workload's instances.
type ranges struct {
	work, volume, speed, failProb, bandwidth interval
}

// wideRanges spread the wide instances' parameters over an order of
// magnitude; with n=60 and m=80 the optimum still varies little between
// instances, because it aggregates hundreds of draws.
var wideRanges = ranges{
	work: interval{5, 50}, volume: interval{1, 20}, speed: interval{1, 10}, failProb: interval{0.02, 0.4}, bandwidth: interval{1, 20},
}

func randomPipeline(rng *rand.Rand, n int, r ranges) *repro.Pipeline {
	w := make([]float64, n)
	d := make([]float64, n+1)
	for i := range w {
		w[i] = r.work.draw(rng)
	}
	for i := range d {
		d[i] = r.volume.draw(rng)
	}
	p, err := repro.NewPipeline(w, d)
	if err != nil {
		panic(err) // unreachable: every entry is positive and finite
	}
	return p
}

// randomFullyHet draws a fully heterogeneous platform with symmetric links
// (the paper's links are bidirectional).
func randomFullyHet(rng *rand.Rand, m int, r ranges) *repro.Platform {
	speed := make([]float64, m)
	fp := make([]float64, m)
	bIn := make([]float64, m)
	bOut := make([]float64, m)
	b := make([][]float64, m)
	for u := range m {
		speed[u] = r.speed.draw(rng)
		fp[u] = r.failProb.draw(rng)
		bIn[u] = r.bandwidth.draw(rng)
		bOut[u] = r.bandwidth.draw(rng)
		b[u] = make([]float64, m)
	}
	for u := range m {
		for v := u + 1; v < m; v++ {
			b[u][v] = r.bandwidth.draw(rng)
			b[v][u] = b[u][v]
		}
	}
	pl, err := repro.NewFullyHeterogeneousPlatform(speed, fp, b, bIn, bOut)
	if err != nil {
		panic(err) // unreachable: every entry is in range
	}
	return pl
}

// randomCommHom draws a communication-homogeneous platform; failHom gives
// every processor the same failure probability (the paper's polynomial
// case), otherwise failure probabilities vary (the bitmask DP's case).
func randomCommHom(rng *rand.Rand, m int, failHom bool, r ranges) *repro.Platform {
	speed := make([]float64, m)
	fp := make([]float64, m)
	common := r.failProb.draw(rng)
	for u := range m {
		speed[u] = r.speed.draw(rng)
		fp[u] = common
		if !failHom {
			fp[u] = r.failProb.draw(rng)
		}
	}
	pl, err := repro.NewCommHomogeneousPlatform(speed, fp, r.bandwidth.draw(rng))
	if err != nil {
		panic(err) // unreachable: every entry is in range
	}
	return pl
}

func randomFullyHom(rng *rand.Rand, m int, r ranges) *repro.Platform {
	pl, err := repro.NewFullyHomogeneousPlatform(m, r.speed.draw(rng), r.bandwidth.draw(rng), r.failProb.draw(rng))
	if err != nil {
		panic(err) // unreachable: every entry is in range
	}
	return pl
}

// query is the solve question a request asks about its instance.
type query struct {
	objective string  // wire objective: "minLatency" or "minFailureProb"
	bound     float64 // maxFailProb for minLatency, maxLatency for minFailureProb
}

// bodyTemplate holds an instance's JSON number tokens, rendered once, so
// that a processor relabeling of the instance is encoded by copying tokens
// in permuted order instead of formatting 6400 floats again.
type bodyTemplate struct {
	m        int
	pipeline []byte // the {"w":...,"delta":...} object
	buf      []byte // backing store of every platform token
	// Token t of the platform is buf[off[t]:off[t+1]]: speed, failProb,
	// bIn, bOut (m each), then the row-major m×m bandwidth matrix.
	off []int32
}

func newBodyTemplate(p *repro.Pipeline, pl *repro.Platform) *bodyTemplate {
	m := pl.NumProcs()
	t := &bodyTemplate{m: m, off: make([]int32, 0, 4*m+m*m+1)}
	t.pipeline = append(t.pipeline, `{"w":`...)
	t.pipeline = appendFloats(t.pipeline, p.W)
	t.pipeline = append(t.pipeline, `,"delta":`...)
	t.pipeline = appendFloats(t.pipeline, p.Delta)
	t.pipeline = append(t.pipeline, '}')
	t.buf = make([]byte, 0, 20*(4*m+m*m))
	add := func(v float64) {
		t.off = append(t.off, int32(len(t.buf)))
		t.buf = strconv.AppendFloat(t.buf, v, 'g', -1, 64)
	}
	for _, vec := range [][]float64{pl.Speed, pl.FailProb, pl.BIn, pl.BOut} {
		for _, v := range vec {
			add(v)
		}
	}
	for u := range m {
		for _, v := range pl.B[u] {
			add(v)
		}
	}
	t.off = append(t.off, int32(len(t.buf)))
	return t
}

func appendFloats(dst []byte, vs []float64) []byte {
	dst = append(dst, '[')
	for i, v := range vs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, v, 'g', -1, 64)
	}
	return append(dst, ']')
}

func (t *bodyTemplate) token(i int) []byte { return t.buf[t.off[i]:t.off[i+1]] }

// appendBody appends the solve request for the instance relabeled by perm
// (processor i of the request is processor perm[i] of the template, the
// convention of Platform.Permute; nil keeps the original labels) asking q.
// No request carries deadlineMillis.
func (t *bodyTemplate) appendBody(dst []byte, perm []int, q query) []byte {
	m := t.m
	id := func(i int) int {
		if perm == nil {
			return i
		}
		return perm[i]
	}
	dst = append(dst, `{"pipeline":`...)
	dst = append(dst, t.pipeline...)
	dst = append(dst, `,"platform":{`...)
	for k, name := range [...]string{`"speed":[`, `"failProb":[`, `"b":[`, `"bIn":[`, `"bOut":[`} {
		if k > 0 {
			dst = append(dst, ',')
		}
		dst = append(dst, name...)
		if k == 2 {
			for i := range m {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = append(dst, '[')
				row := 4*m + id(i)*m
				for j := range m {
					if j > 0 {
						dst = append(dst, ',')
					}
					if i == j {
						dst = append(dst, '0') // Permute zeroes the diagonal
					} else {
						dst = append(dst, t.token(row+id(j))...)
					}
				}
				dst = append(dst, ']')
			}
		} else {
			vec := k
			if k > 2 {
				vec = k - 1
			}
			for i := range m {
				if i > 0 {
					dst = append(dst, ',')
				}
				dst = append(dst, t.token(vec*m+id(i))...)
			}
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `},"objective":"`...)
	dst = append(dst, q.objective...)
	if q.objective == "minLatency" {
		dst = append(dst, `","maxFailProb":`...)
	} else {
		dst = append(dst, `","maxLatency":`...)
	}
	dst = strconv.AppendFloat(dst, q.bound, 'g', -1, 64)
	return append(dst, '}')
}

// bestSingleProcLatency is the smallest latency of mapping the whole
// pipeline onto one processor; any latency bound at or above it is
// feasible.
func bestSingleProcLatency(p *repro.Pipeline, pl *repro.Platform) float64 {
	best := 0.0
	for u := range pl.NumProcs() {
		l, err := repro.Latency(p, pl, repro.SingleIntervalMapping(p.NumStages(), []int{u}))
		if err != nil {
			panic(err) // unreachable: a single-processor mapping is valid
		}
		if u == 0 || l < best {
			best = l
		}
	}
	return best
}
