package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/serve"
)

// The traced run attributes handler time to layers from outside the
// program: ServeHTTP is timed as the root span, then the benchmark replays
// the request's bytes through the public function behind each layer and
// times that as a child span. Decode, canonicalize, translate and encode
// replay for every request; session build and solve replay only when the
// response shows the service did them (cacheHit false: it built a session;
// cached and coalesced false: it ran the solver). A root's self time is
// its duration minus its children's.

type span int

const (
	spanDecode    span = iota // json.Unmarshal into serve.SolveSpec
	spanCanon                 // repro.CanonicalizeInstance
	spanBuild                 // repro.NewSession on the canonical instance
	spanSolve                 // Session.Solve
	spanTranslate             // CanonicalInstance.ToOriginal
	spanEncode                // JSON encoding of serve.SolveResult
	numSpans
)

var spanNames = [numSpans]string{"wire.decode", "canon", "session.build", "core.solve", "translate", "wire.encode"}

// reqTrace is one request's spans; offsets are from the window start.
type reqTrace struct {
	rootStart, rootDur time.Duration
	start, dur         [numSpans]time.Duration
	ran                [numSpans]bool
	route              string // the answering route, when the solve replayed
	bodyBytes          int
}

// children sums the child spans' durations.
func (t *reqTrace) children() time.Duration {
	var sum time.Duration
	for s := range numSpans {
		sum += t.dur[s]
	}
	return sum
}

// replayer is one client's replay state: the window start its span
// offsets count from, the sessions it has built, keyed like the service's
// (by canonical bytes), and an encode buffer.
type replayer struct {
	origin   time.Time
	sessions map[string]*repro.Session
	enc      bytes.Buffer
}

// replayerSessions bounds the sessions a replayer keeps, like the
// service's warm-session LRU bounds its own.
const replayerSessions = 64

func newReplayer(origin time.Time) *replayer {
	return &replayer{origin: origin, sessions: make(map[string]*repro.Session)}
}

// replay times the child spans of one request whose ServeHTTP began at
// rootStart and took rootDur. A failed replay step leaves its span out;
// the answer check reports the request itself.
func (r *replayer) replay(rootStart time.Time, rootDur time.Duration, body, resp []byte) *reqTrace {
	tr := &reqTrace{rootStart: rootStart.Sub(r.origin), rootDur: rootDur, bodyBytes: len(body)}
	timed := func(s span, f func()) {
		began := time.Now()
		f()
		tr.start[s], tr.dur[s], tr.ran[s] = began.Sub(r.origin), time.Since(began), true
	}
	var spec serve.SolveSpec
	var decodeErr error
	timed(spanDecode, func() { decodeErr = json.Unmarshal(body, &spec) })
	if decodeErr != nil {
		return tr
	}
	var cn *repro.CanonicalInstance
	var canonErr error
	timed(spanCanon, func() { cn, canonErr = repro.CanonicalizeInstance(spec.Pipeline, spec.Platform) })
	var res serve.SolveResult
	if canonErr != nil || json.Unmarshal(resp, &res) != nil || res.Mapping == nil {
		return tr
	}
	key := string(cn.Bytes)
	sess := r.sessions[key]
	if sess == nil || !res.CacheHit {
		build := func() {
			var err error
			if sess, err = repro.NewSession(cn.Pipeline(), cn.Platform()); err != nil {
				sess = nil
			}
		}
		if res.CacheHit {
			build() // warmed during set-up: the service paid no build here
		} else {
			timed(spanBuild, build)
		}
		if sess == nil {
			return tr
		}
		if len(r.sessions) >= replayerSessions {
			clear(r.sessions)
		}
		r.sessions[key] = sess
	}
	if !res.Cached && !res.Coalesced {
		req := repro.SolveRequest{Objective: repro.MinimizeFailureProb, MaxLatency: spec.MaxLatency, MaxFailProb: spec.MaxFailProb}
		if spec.Objective == "minLatency" {
			req.Objective = repro.MinimizeLatency
		}
		timed(spanSolve, func() { _, _ = sess.Solve(context.Background(), req) })
		tr.route = res.Route
	}
	canonical := cn.ToCanonical(res.Mapping)
	timed(spanTranslate, func() { _ = cn.ToOriginal(canonical) })
	timed(spanEncode, func() {
		r.enc.Reset()
		enc := json.NewEncoder(&r.enc)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(res)
	})
	return tr
}

// writeSpans writes every span of a traced window as JSON lines after a
// header line naming the run: one root span per request and its children,
// sharing the request id.
func writeSpans(path, header string, recs []record) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, header)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
	for _, rec := range recs {
		t := rec.trace
		if t == nil {
			continue
		}
		id := fmt.Sprintf("c%d.%d", rec.c, rec.j)
		fmt.Fprintf(w, `{"req":%q,"span":"serve.handler","start_us":%.3f,"dur_us":%.3f}`+"\n", id, us(t.rootStart), us(t.rootDur))
		for s := range numSpans {
			if t.ran[s] {
				fmt.Fprintf(w, `{"req":%q,"span":%q,"parent":"serve.handler","start_us":%.3f,"dur_us":%.3f}`+"\n",
					id, spanNames[s], us(t.start[s]), us(t.dur[s]))
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
