package exact

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/frontier"
	"repro/internal/mapping"
	"repro/internal/pipeline"
	"repro/internal/platform"
)

// This file holds the original unpruned slice-based solvers on top of
// ForEachMapping. They used to be the production fallback for platforms
// beyond the bitmask engine's limits; since the multi-word bitset search
// covers every m they survive only as the reference implementations the
// engine is property-tested against.

func minLatencyIntervalWide(p *pipeline.Pipeline, pl *platform.Platform, opts Options) (Result, error) {
	best := Result{Metrics: mapping.Metrics{Latency: math.Inf(1)}}
	err := ForEachMapping(p.NumStages(), pl.NumProcs(), opts, func(mp *mapping.Mapping) bool {
		met, err := mapping.Evaluate(p, pl, mp)
		if err != nil {
			return true
		}
		if met.Latency < best.Metrics.Latency {
			best = Result{Mapping: mp.Clone(), Metrics: met}
		}
		return true
	})
	return finishWide(best, err)
}

// finishWide mirrors finish for the slice-based references: a canceled
// run still returns the best mapping seen so far (when any) alongside
// the ErrCanceled error.
func finishWide(best Result, runErr error) (Result, error) {
	if runErr != nil {
		if errors.Is(runErr, ErrCanceled) && best.Mapping != nil {
			return best, runErr
		}
		return Result{}, runErr
	}
	if best.Mapping == nil {
		return Result{}, fmt.Errorf("interval enumeration: %w", ErrInfeasible)
	}
	return best, nil
}

func minFPUnderLatencyWide(p *pipeline.Pipeline, pl *platform.Platform, maxLatency float64, opts Options) (Result, error) {
	best := Result{Metrics: mapping.Metrics{FailureProb: math.Inf(1)}}
	err := ForEachMapping(p.NumStages(), pl.NumProcs(), opts, func(mp *mapping.Mapping) bool {
		met, err := mapping.Evaluate(p, pl, mp)
		if err != nil {
			return true
		}
		if !leqTol(met.Latency, maxLatency) {
			return true
		}
		if met.FailureProb < best.Metrics.FailureProb ||
			(met.FailureProb == best.Metrics.FailureProb && met.Latency < best.Metrics.Latency) {
			best = Result{Mapping: mp.Clone(), Metrics: met}
		}
		return true
	})
	return finishWide(best, err)
}

func minLatencyUnderFPWide(p *pipeline.Pipeline, pl *platform.Platform, maxFailureProb float64, opts Options) (Result, error) {
	best := Result{Metrics: mapping.Metrics{Latency: math.Inf(1)}}
	err := ForEachMapping(p.NumStages(), pl.NumProcs(), opts, func(mp *mapping.Mapping) bool {
		met, err := mapping.Evaluate(p, pl, mp)
		if err != nil {
			return true
		}
		if met.FailureProb > maxFailureProb+1e-12 {
			return true
		}
		if met.Latency < best.Metrics.Latency ||
			(met.Latency == best.Metrics.Latency && met.FailureProb < best.Metrics.FailureProb) {
			best = Result{Mapping: mp.Clone(), Metrics: met}
		}
		return true
	})
	return finishWide(best, err)
}

func paretoFrontWide(p *pipeline.Pipeline, pl *platform.Platform, opts Options) ([]Result, error) {
	front := &frontier.Front{}
	err := ForEachMapping(p.NumStages(), pl.NumProcs(), opts, func(mp *mapping.Mapping) bool {
		met, err := mapping.Evaluate(p, pl, mp)
		if err != nil {
			return true
		}
		front.Insert(met, mp)
		return true
	})
	if err != nil && !errors.Is(err, ErrCanceled) {
		return nil, err
	}
	results := make([]Result, 0, front.Len())
	for _, e := range front.Entries() {
		results = append(results, Result{Mapping: e.Mapping, Metrics: e.Metrics})
	}
	return results, err
}
