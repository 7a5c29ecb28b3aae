// Command wirebench is the wire-level benchmark of the solve service. It
// drives serve.Service.ServeHTTP in-process with pre-encoded JSON bodies
// from a closed loop of two clients, checks every answer, and prints every
// metric by name and unit; the last line of its output is one JSON object
// with the keys correct, attempted, failed and metrics.
//
// Usage, from the repository root:
//
//	bash wirebench/run.sh --workload cached-m80 --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics (throughput, latency median
// and tail, success share, allocation, answer quality, set-up time). The
// throughput and latencies are medians over the window's half-second
// slices (see sliceLen).
// --trace 1 measures an untraced window and then a traced one, and prints
// the per-layer metrics; the traced window's spans are written under
// .bench_build/wirebench/traces.
//
// Claims made with seeds 1 to 10 should be re-checked on seeds 101 to 110,
// which no tuning of this benchmark used.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a --trace 0 run sets the workload up;
// setup_s is the median.
const setupRepeats = 5

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "wirebench:", err)
		os.Exit(1)
	}
}

func run() error {
	name := flag.String("workload", "", "workload: cached-m80, cold-m80 or sweep-small")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "length of each measured window in seconds")
	traceFlag := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	d := time.Duration(*seconds) * time.Second
	machine := machineStamp()
	fmt.Printf("machine: %s\n", machine)
	fmt.Printf("workload: %s seed=%d seconds=%d trace=%d clients=%d\n", w.name, *seed, *seconds, *traceFlag, clients)

	repeats := setupRepeats
	if *traceFlag == 1 {
		repeats = 1
	}
	var b *bench
	var setups []float64
	for range repeats {
		b = nil
		runtime.GC()
		began := time.Now()
		var err error
		if b, err = w.setup(*seed); err != nil {
			return fmt.Errorf("setting up %s: %w", w.name, err)
		}
		setups = append(setups, time.Since(began).Seconds())
	}
	fmt.Printf("setup_s runs: %v\n", setups)

	var next [clients]int
	plain, err := measure(b, d, &next, false)
	if err != nil {
		return err
	}
	defer plain.free()
	out := evaluate(w, b, "untraced", plain)
	res := result{correct: out.correct(), attempted: out.attempted, failed: out.failed}
	if *traceFlag == 0 {
		res.metrics = endToEnd(w, plain, out, median(setups))
	} else {
		traced, err := measure(b, d, &next, true)
		if err != nil {
			return err
		}
		defer traced.free()
		tout := evaluate(w, b, "traced", traced)
		res.correct = res.correct && tout.correct()
		res.attempted += tout.attempted
		res.failed += tout.failed
		res.metrics = perLayer(plain, traced, tout)
		path := fmt.Sprintf(".bench_build/wirebench/traces/%s-seed%d.jsonl", w.name, *seed)
		header, _ := json.Marshal(map[string]any{"machine": machine, "workload": w.name, "seed": *seed, "seconds": *seconds})
		if err := writeSpans(path, string(header), traced.records); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		fmt.Printf("spans: %s\n", path)
	}
	line, err := res.encode()
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// outcome is the checked result of one window.
type outcome struct {
	attempted, failed int
	violations        []string // broken counter invariants
	latMs             []float64
	bad               []bool // per record: the answer failed
	objLogSum         float64
	objCount          int
	routes            map[string]int
}

func (o *outcome) correct() bool { return o.failed == 0 && len(o.violations) == 0 }

// evaluate checks every answer of a window (after it closed) and the
// window's counter invariants, and prints the counter delta.
func evaluate(w workload, b *bench, label string, win *window) *outcome {
	o := &outcome{attempted: len(win.records), routes: map[string]int{}}
	var firstFailures []string
	for _, rec := range win.records {
		o.latMs = append(o.latMs, ms(rec.dur))
		e := b.expect(rec.c, rec.j)
		ans, err := checkAnswer(e, rec.status, rec.resp)
		o.bad = append(o.bad, err != nil)
		if err != nil {
			o.failed++
			if len(firstFailures) < 5 {
				firstFailures = append(firstFailures, fmt.Sprintf("client %d request %d: %v", rec.c, rec.j, err))
			}
			continue
		}
		o.routes[ans.Route]++
		o.objLogSum += math.Log(objective(e.q, ans))
		o.objCount++
	}
	n := int64(len(win.records))
	o.violations = b.invariants(win.delta, n)
	if win.delta["requests"] != n {
		o.violations = append(o.violations, fmt.Sprintf("requests = %d, want %d", win.delta["requests"], n))
	}
	fmt.Printf("%s window: %d requests in %.3fs, %d failed, routes %v\n", label, n, win.wall.Seconds(), o.failed, o.routes)
	fmt.Printf("%s heap: %.1f MiB live at the start, %.1f MiB at the end, %d collections\n",
		label, float64(win.liveStart)/(1<<20), float64(win.liveEnd)/(1<<20), win.gcs)
	fmt.Printf("%s stats delta: %s\n", label, win.delta)
	for _, f := range firstFailures {
		fmt.Printf("%s FAILED %s\n", label, f)
	}
	for _, v := range o.violations {
		fmt.Printf("%s INVARIANT VIOLATED %s\n", label, v)
	}
	return o
}

// metric is one named, unit-carrying value of the result line.
type metric struct {
	name, unit string
	value      float64
}

// result is the run's verdict, printed as the last line of output.
type result struct {
	correct           bool
	attempted, failed int
	metrics           []metric
}

// encode renders the result line; a metric that is not a finite number
// fails it.
func (r result) encode() (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(r.metrics))
	for _, m := range r.metrics {
		metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.correct, r.attempted, r.failed, metrics})
	return string(line), err
}

func endToEnd(w workload, win *window, o *outcome, setupS float64) []metric {
	sorted := slices.Clone(o.latMs)
	sort.Float64s(sorted)
	fmt.Printf("latency ms over the window: p50 %.4g, p90 %.4g, p95 %.4g, p99 %.4g, p99.9 %.4g, max %.4g\n",
		percentile(sorted, 50), percentile(sorted, 90), percentile(sorted, 95), percentile(sorted, 99),
		percentile(sorted, 99.9), sorted[len(sorted)-1])
	var rps, p50s, tails, counts []float64
	beyond := 0
	for _, s := range windowSlices(win, o, w.tailPct) {
		rps = append(rps, s.rps)
		if len(s.lat) > 0 {
			p50s, tails = append(p50s, s.p50), append(tails, s.tail)
			counts = append(counts, float64(len(s.lat)))
			beyond += len(s.lat) - sort.SearchFloat64s(s.lat, math.Nextafter(s.tail, math.Inf(1)))
		}
	}
	fmt.Printf("latency_tail_ms is the median over %d slices of %v of each slice's p%g (%d samples, %.0f per slice at the median, %d beyond their slice's p%g)\n",
		len(tails), sliceLen, w.tailPct, len(sorted), median(counts), beyond, w.tailPct)
	n := float64(o.attempted)
	ok := float64(o.attempted - o.failed)
	geo := 0.0
	if o.objCount > 0 {
		geo = math.Exp(o.objLogSum / float64(o.objCount))
	}
	return []metric{
		{"throughput_rps", "1/s", median(rps)},
		{"latency_p50_ms", "ms", median(p50s)},
		{"latency_tail_ms", "ms", median(tails)},
		{"ok_frac", "frac", ok / n},
		{"alloc_kb_per_req", "KiB", float64(win.alloc) / 1024 / n},
		{"objective_geomean", "obj", geo},
		{"setup_s", "s", setupS},
	}
}

// routes reported per layer: every route the three workloads answer from.
var layerRoutes = []string{"poly", "dp", "exact", "heuristic"}

func perLayer(plain, traced *window, o *outcome) []metric {
	n := float64(len(traced.records))
	var root, other, kb float64
	var sum [numSpans]float64
	var cnt [numSpans]int
	solveSum, solveCnt := map[string]float64{}, map[string]int{}
	for _, rec := range traced.records {
		t := rec.trace
		root += ms(t.rootDur)
		other += ms(t.rootDur - t.children())
		kb += float64(t.bodyBytes) / 1024
		for s := range numSpans {
			if t.ran[s] {
				sum[s] += ms(t.dur[s])
				cnt[s]++
			}
		}
		if t.ran[spanSolve] {
			solveSum[t.route] += ms(t.dur[spanSolve])
			solveCnt[t.route]++
		}
	}
	mean := func(s span) float64 { return ratio(sum[s], float64(cnt[s])) }
	d := traced.delta
	both := func(k string) float64 { return float64(plain.delta[k] + traced.delta[k]) }
	out := []metric{
		{"serve.handler_ms", "ms", root / n},
		{"serve.other_ms", "ms", other / n},
		{"wire.decode_ms", "ms", mean(spanDecode)},
		{"wire.decode_kb", "KiB", kb / n},
		{"canon.ms", "ms", mean(spanCanon)},
		{"translate.ms", "ms", mean(spanTranslate)},
		{"wire.encode_ms", "ms", mean(spanEncode)},
		{"session.build_ms", "ms", mean(spanBuild)},
		{"session.hit_ratio", "frac", ratio(float64(d["cacheHits"]), float64(d["cacheHits"]+d["cacheMisses"]))},
		{"solcache.hit_ratio", "frac", ratio(float64(d["solutionHits"]), float64(d["solutionHits"]+d["solutionMisses"]))},
	}
	for _, r := range layerRoutes {
		out = append(out, metric{"core.solve_ms." + r, "ms", ratio(solveSum[r], float64(solveCnt[r]))})
	}
	for _, r := range layerRoutes {
		out = append(out, metric{"core.route_share." + r, "frac", float64(o.routes[r]) / n})
	}
	e := func(k string) float64 { return float64(d["exact_"+k+"_total"]) }
	plainRate := float64(len(plain.records)) / plain.wall.Seconds()
	tracedRate := n / traced.wall.Seconds()
	out = append(out,
		metric{"exact.nodes_per_run", "count", ratio(e("nodes"), e("runs"))},
		metric{"exact.prune_ratio", "frac", ratio(e("incumbent_prunes"), e("nodes"))},
		metric{"exact.memo_hit_ratio", "frac", ratio(e("memo_hits"), e("memo_hits")+e("memo_misses"))},
		metric{"exact.batch_fill", "count", ratio(e("batch_candidates"), e("batch_calls"))},
		metric{"resilience.shed", "count", both("shed")},
		metric{"resilience.coalesced", "count", both("coalesced")},
		metric{"core.route_skips", "count", both("routeSkips")},
		metric{"trace.unattributed_frac", "frac", ratio(other, root)},
		metric{"trace.overhead_frac", "frac", 1 - tracedRate/plainRate},
	)
	for _, m := range out {
		fmt.Printf("layer %-28s %14.6f %s\n", m.name, m.value, m.unit)
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// percentile is the nearest-rank p-th percentile of sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	k := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	return sorted[max(0, min(k, len(sorted)-1))]
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// machineStamp names the box a result came from, so that numbers are never
// compared across machines.
func machineStamp() string {
	cpu := "unknown"
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%q go=%s os=%s/%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpu, runtime.Version(), runtime.GOOS, runtime.GOARCH)
}

// sliceLen is the stretch of wall time a window is cut into for the
// end-to-end metrics. The host's speed swings by up to 2x within a second,
// as other tenants come and go; each time metric is measured per slice and
// reported as the median over the slices, so stalls that cover less than
// half of the window do not move it, while costs the program pays in every
// slice, such as collections, still do.
const sliceLen = 500 * time.Millisecond

// sliceStat is one slice of a window.
type sliceStat struct {
	// rps counts the successful requests served in the slice, each one
	// pro rata to the share of its service time inside the slice, so that
	// the rate is not rounded to whole requests.
	rps       float64
	lat       []float64 // sorted latencies (ms) of the requests that completed in the slice
	p50, tail float64
}

// windowSlices cuts a window into slices of about sliceLen and measures
// each.
func windowSlices(win *window, o *outcome, tailPct float64) []sliceStat {
	k := max(1, int(win.wall/sliceLen))
	width := win.wall / time.Duration(k)
	slot := func(t time.Duration) int { return min(int(t/width), k-1) }
	out := make([]sliceStat, k)
	for i, rec := range win.records {
		end := rec.at + rec.dur
		out[slot(end)].lat = append(out[slot(end)].lat, o.latMs[i])
		if o.bad[i] {
			continue
		}
		if rec.dur <= 0 {
			out[slot(end)].rps++
			continue
		}
		for t := rec.at; t < end; {
			s := slot(t)
			next := end
			if s < k-1 {
				next = min(end, time.Duration(s+1)*width)
			}
			out[s].rps += float64(next-t) / float64(rec.dur)
			t = next
		}
	}
	for s := range out {
		sl := &out[s]
		sl.rps /= width.Seconds()
		sort.Float64s(sl.lat)
		sl.p50, sl.tail = percentile(sl.lat, 50), percentile(sl.lat, tailPct)
	}
	return out
}
