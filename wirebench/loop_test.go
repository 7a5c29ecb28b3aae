package main

import (
	"math"
	"testing"
	"time"
)

// TestShortRunsAreCorrect drives every workload through a short untraced
// and a short traced window: every answer must pass the check, every
// counter invariant must hold, and the metrics must be finite numbers with
// exactly the names and units BENCHMARK.json lists.
func TestShortRunsAreCorrect(t *testing.T) {
	spec := readBenchmarkSpec(t)
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			b, err := w.setup(5)
			if err != nil {
				t.Fatal(err)
			}
			var next [clients]int
			plain, err := measure(b, 300*time.Millisecond, &next, false)
			if err != nil {
				t.Fatal(err)
			}
			defer plain.free()
			traced, err := measure(b, 300*time.Millisecond, &next, true)
			if err != nil {
				t.Fatal(err)
			}
			defer traced.free()
			out, tout := evaluate(w, b, "untraced", plain), evaluate(w, b, "traced", traced)
			if !out.correct() || !tout.correct() {
				t.Fatalf("failed answers %d and %d, invariants %v and %v", out.failed, tout.failed, out.violations, tout.violations)
			}
			e2e, layers := endToEnd(w, plain, out, 1), perLayer(plain, traced, tout)
			for _, m := range append(e2e, layers...) {
				if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
					t.Errorf("metric %s = %v", m.name, m.value)
				}
			}
			sameMetrics(t, "end_to_end", e2e, spec.EndToEnd)
			sameMetrics(t, "per_layer", layers, spec.PerLayer)
		})
	}
}

func sameMetrics(t *testing.T, list string, got []metric, want []struct{ Name, Unit string }) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: the benchmark prints %d metrics, BENCHMARK.json lists %d", list, len(got), len(want))
	}
	for i, m := range got {
		if m.name != want[i].Name || m.unit != want[i].Unit {
			t.Errorf("%s metric %d: the benchmark prints %s (%s), BENCHMARK.json lists %s (%s)",
				list, i, m.name, m.unit, want[i].Name, want[i].Unit)
		}
	}
}

// TestWindowSlices: each successful request counts in the slices its
// service time spans, pro rata; its latency counts in the slice it
// completed in; a failed request adds a latency but no throughput.
func TestWindowSlices(t *testing.T) {
	win := &window{wall: 2 * sliceLen, records: []record{
		{at: 0, dur: sliceLen / 2},                // all in slice 0
		{at: sliceLen / 2, dur: sliceLen},         // half in each slice
		{at: sliceLen * 3 / 2, dur: sliceLen / 4}, // failed, in slice 1
	}}
	o := &outcome{latMs: []float64{250, 500, 125}, bad: []bool{false, false, true}}
	got := windowSlices(win, o, 95)
	perSecond := 1 / sliceLen.Seconds()
	want := []struct {
		rps, p50, tail float64
		n              int
	}{{1.5 * perSecond, 250, 250, 1}, {0.5 * perSecond, 125, 500, 2}}
	if len(got) != len(want) {
		t.Fatalf("%d slices, want %d", len(got), len(want))
	}
	for i, w := range want {
		g := got[i]
		if math.Abs(g.rps-w.rps) > 1e-9 || g.p50 != w.p50 || g.tail != w.tail || len(g.lat) != w.n {
			t.Errorf("slice %d: rps %v p50 %v tail %v over %d, want %v %v %v over %d",
				i, g.rps, g.p50, g.tail, len(g.lat), w.rps, w.p50, w.tail, w.n)
		}
	}
}
