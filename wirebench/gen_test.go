package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/serve"
)

// TestBodiesDeterministic: one seed gives byte-identical bodies, whatever
// else ran in between; another seed gives different ones.
func TestBodiesDeterministic(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := w.setup(7)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.setup(7)
			if err != nil {
				t.Fatal(err)
			}
			other, err := w.setup(8)
			if err != nil {
				t.Fatal(err)
			}
			for c := range clients {
				for j := range 6 {
					got, want := b.body(c, 5-j, nil), a.body(c, 5-j, nil)
					if !bytes.Equal(got, want) {
						t.Fatalf("seed 7, client %d request %d: bodies differ between set-ups", c, 5-j)
					}
					if bytes.Equal(other.body(c, 5-j, nil), want) {
						t.Fatalf("seeds 7 and 8 give the same body for client %d request %d", c, 5-j)
					}
				}
			}
		})
	}
}

// TestRelabeledBodyDecodesToPermute: the token-copy encoding of a
// relabeling decodes to exactly Platform.Permute's relabeled platform,
// which is what the answer check re-scores against.
func TestRelabeledBodyDecodesToPermute(t *testing.T) {
	rng := newRand(3, 0)
	p, pl := randomPipeline(rng, 5, wideRanges), randomFullyHet(rng, 7, wideRanges)
	tmpl := newBodyTemplate(p, pl)
	q := query{objective: "minLatency", bound: 0.25}
	for _, perm := range [][]int{nil, rng.Perm(7), rng.Perm(7)} {
		var spec serve.SolveSpec
		if err := json.Unmarshal(tmpl.appendBody(nil, perm, q), &spec); err != nil {
			t.Fatal(err)
		}
		want := pl
		if perm != nil {
			want = pl.Permute(perm)
		}
		if !reflect.DeepEqual(spec.Platform.B, want.B) || !reflect.DeepEqual(spec.Platform.Speed, want.Speed) ||
			!reflect.DeepEqual(spec.Platform.FailProb, want.FailProb) || !reflect.DeepEqual(spec.Platform.BIn, want.BIn) ||
			!reflect.DeepEqual(spec.Platform.BOut, want.BOut) {
			t.Fatalf("perm %v: decoded platform differs from Permute", perm)
		}
		if !reflect.DeepEqual(spec.Pipeline.W, p.W) || !reflect.DeepEqual(spec.Pipeline.Delta, p.Delta) {
			t.Fatal("decoded pipeline differs")
		}
		if spec.Objective != q.objective || spec.MaxFailProb != q.bound || spec.DeadlineMillis != 0 {
			t.Fatalf("decoded question %q %v deadline %d", spec.Objective, spec.MaxFailProb, spec.DeadlineMillis)
		}
	}
}

// benchmarkSpec is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSONMatchesWorkloads: BENCHMARK.json names exactly these
// workloads and ends each one's reason with its tail percentile.
func TestBenchmarkJSONMatchesWorkloads(t *testing.T) {
	spec := readBenchmarkSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range workloads {
		got := spec.Workloads[i]
		if got.Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, got.Name, w.name)
		}
		if tail := "tail p" + strconv.FormatFloat(w.tailPct, 'g', -1, 64); !strings.HasSuffix(got.Why, tail) {
			t.Errorf("%s: why %q does not state %q", w.name, got.Why, tail)
		}
	}
}
