package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro"
	"repro/serve"
)

// relTol is the relative tolerance of every metric comparison: re-scored
// against reported metrics, answer against bound, answer against the
// reference optimum.
const relTol = 1e-9

// expectation is what the answer check knows about one request: the
// instance in the request's own processor labelling, the question asked,
// and, where one was computed at set-up, the reference optimum.
type expectation struct {
	pipe *repro.Pipeline
	plat *repro.Platform
	q    query
	// ref is the optimal objective value computed through the library with
	// no service in the path; 0 means the workload has no reference.
	ref float64
}

// errCheck marks an answer that failed the check (as opposed to a fault of
// the benchmark itself).
var errCheck = errors.New("answer check")

func failf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", errCheck, fmt.Sprintf(format, args...))
}

// checkAnswer validates one response against its request and returns the
// decoded answer. It compares metrics only, never mappings: tied mappings
// legitimately differ between runs and implementations.
func checkAnswer(e expectation, status int, body []byte) (serve.SolveResult, error) {
	var res serve.SolveResult
	if status != 200 {
		return res, failf("status %d: %.200s", status, body)
	}
	if len(body) == 0 {
		return res, failf("empty body")
	}
	if err := json.Unmarshal(body, &res); err != nil {
		return res, failf("invalid JSON body: %v", err)
	}
	switch {
	case res.Error != "":
		return res, failf("in-band error: %s", res.Error)
	case res.Mapping == nil:
		return res, failf("no mapping")
	case res.Partial:
		return res, failf("partial answer")
	case !finite(res.Latency) || !finite(res.FailureProb):
		return res, failf("non-finite metrics: latency %v, failure probability %v", res.Latency, res.FailureProb)
	}
	got, err := repro.Evaluate(e.pipe, e.plat, res.Mapping)
	if err != nil {
		return res, failf("mapping does not evaluate: %v", err)
	}
	if !finite(got.Latency) || !finite(got.FailureProb) {
		return res, failf("mapping re-scores to non-finite metrics: latency %v, failure probability %v", got.Latency, got.FailureProb)
	}
	if !agree(got.Latency, res.Latency) || !agree(got.FailureProb, res.FailureProb) {
		return res, failf("mapping re-scores to latency %v, failure probability %v; reported %v, %v",
			got.Latency, got.FailureProb, res.Latency, res.FailureProb)
	}
	obj, constraint := objective(e.q, res), got.Latency
	if e.q.objective == "minLatency" {
		constraint = got.FailureProb
	}
	if e.q.bound > 0 && constraint > e.q.bound*(1+relTol) {
		return res, failf("%s answer violates its bound: %v > %v", e.q.objective, constraint, e.q.bound)
	}
	if e.ref > 0 {
		optimal := res.Certainty == repro.ProvablyOptimal.String() || res.Certainty == repro.ExhaustivelyOptimal.String()
		if optimal && !agree(obj, e.ref) {
			return res, failf("%s answer graded %q is %v, reference optimum %v", e.q.objective, res.Certainty, obj, e.ref)
		}
		if obj < e.ref*(1-relTol) {
			return res, failf("%s answer %v beats the reference optimum %v", e.q.objective, obj, e.ref)
		}
	}
	return res, nil
}

// objective returns the minimized criterion of an answer.
func objective(q query, res serve.SolveResult) float64 {
	if q.objective == "minLatency" {
		return res.Latency
	}
	return res.FailureProb
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// agree reports whether a and b are equal within relTol.
func agree(a, b float64) bool {
	return a == b || math.Abs(a-b) <= relTol*math.Max(math.Abs(a), math.Abs(b))
}
