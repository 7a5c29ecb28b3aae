package main

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro"
	"repro/serve"
)

// solvedCase is a small fully heterogeneous instance, a latency-bounded
// question about it, and the library's exact answer encoded as the
// service would encode it.
func solvedCase(t *testing.T) (expectation, serve.SolveResult) {
	t.Helper()
	rng := newRand(11, 0)
	p, pl := randomPipeline(rng, 4, wideRanges), randomFullyHet(rng, 4, wideRanges)
	sess, err := repro.NewSession(p, pl)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := sess.Solve(context.Background(), repro.SolveRequest{Objective: repro.MinimizeLatency})
	if err != nil {
		t.Fatal(err)
	}
	q := query{objective: "minFailureProb", bound: 1.5 * lat.Metrics.Latency}
	r, err := sess.Solve(context.Background(), repro.SolveRequest{Objective: repro.MinimizeFailureProb, MaxLatency: q.bound})
	if err != nil {
		t.Fatal(err)
	}
	if r.Certainty != repro.ExhaustivelyOptimal {
		t.Fatalf("reference graded %v, want exhaustively optimal", r.Certainty)
	}
	res := serve.SolveResult{
		Mapping: r.Mapping, Latency: r.Metrics.Latency, FailureProb: r.Metrics.FailureProb,
		Certainty: r.Certainty.String(), Route: r.Route,
	}
	return expectation{pipe: p, plat: pl, q: q, ref: r.Metrics.FailureProb}, res
}

func encode(t *testing.T, res serve.SolveResult) []byte {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestCheckAcceptsCorrectAnswer(t *testing.T) {
	e, res := solvedCase(t)
	if _, err := checkAnswer(e, 200, encode(t, res)); err != nil {
		t.Fatalf("correct answer rejected: %v", err)
	}
	// A heuristic answer may be worse than the reference optimum.
	e.ref *= 0.5
	res.Certainty = repro.Heuristic.String()
	if _, err := checkAnswer(e, 200, encode(t, res)); err != nil {
		t.Fatalf("heuristic answer worse than the optimum rejected: %v", err)
	}
}

func TestCheckRejectsBadAnswers(t *testing.T) {
	e, good := solvedCase(t)
	body := func(f func(*serve.SolveResult)) []byte {
		res := good
		res.Mapping = good.Mapping.Clone()
		f(&res)
		return encode(t, res)
	}
	// An instance whose Eq. (2) latency overflows: re-scoring gives +Inf.
	huge, err := repro.NewPipeline([]float64{1e308, 1e308}, []float64{1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	hugePlat, err := repro.NewFullyHomogeneousPlatform(2, 1, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	overflow := expectation{pipe: huge, plat: hugePlat, q: query{objective: "minLatency"}}
	overflowBody := encode(t, serve.SolveResult{
		Mapping: repro.SingleIntervalMapping(2, []int{0}), Latency: 1.7976931348623157e308, FailureProb: 0.1,
		Certainty: repro.ProvablyOptimal.String(),
	})

	cases := []struct {
		name   string
		e      expectation
		status int
		body   []byte
	}{
		{"empty 200 body", e, 200, nil},
		{"non-200 status", e, 503, []byte(`{"error":"overloaded: queue full"}`)},
		{"invalid JSON", e, 200, []byte(`{"latency":`)},
		{"latency out of float64 range", e, 200, []byte(strings.Replace(string(encode(t, good)), `"latency":`, `"latency":1e999,"x":`, 1))},
		{"mapping re-scores to +Inf", overflow, 200, overflowBody},
		{"in-band error", e, 200, body(func(r *serve.SolveResult) { r.Mapping, r.Error = nil, "infeasible: no mapping" })},
		{"missing mapping", e, 200, body(func(r *serve.SolveResult) { r.Mapping = nil })},
		{"partial answer", e, 200, body(func(r *serve.SolveResult) { r.Partial = true })},
		{"mapping does not re-score: latency", e, 200, body(func(r *serve.SolveResult) { r.Latency *= 1.001 })},
		{"mapping does not re-score: failure probability", e, 200, body(func(r *serve.SolveResult) { r.FailureProb *= 0.999 })},
		{"invalid mapping", e, 200, body(func(r *serve.SolveResult) { r.Mapping.Alloc[0] = []int{99} })},
		{"violated bound", withBound(e, good.Latency*0.99), 200, encode(t, good)},
		{"optimal answer worse than the reference", withRef(e, good.FailureProb*0.99), 200, encode(t, good)},
		{"optimal answer better than the reference", withRef(e, good.FailureProb*1.01), 200, encode(t, good)},
		{"heuristic answer better than the reference", withRef(e, good.FailureProb*1.01), 200,
			body(func(r *serve.SolveResult) { r.Certainty = repro.Heuristic.String() })},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := checkAnswer(tc.e, tc.status, tc.body)
			if !errors.Is(err, errCheck) {
				t.Fatalf("checkAnswer = %v, want an answer-check failure", err)
			}
			t.Log(err)
		})
	}
}

func withBound(e expectation, bound float64) expectation {
	e.q.bound = bound
	return e
}

func withRef(e expectation, ref float64) expectation {
	e.ref = ref
	return e
}
