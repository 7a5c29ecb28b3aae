package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"repro/serve"
)

// clients is the closed loop's size: each client sends its next request
// only after the previous reply, as callers waiting on an answer do.
const clients = 2

// record is one measured request.
type record struct {
	c, j   int
	status int
	at     time.Duration // when ServeHTTP was called, from the window's start
	dur    time.Duration // wall time of ServeHTTP
	resp   []byte
	trace  *reqTrace // nil in an untraced window
}

// window is one measured stretch of closed-loop load.
type window struct {
	records []record
	wall    time.Duration
	alloc   uint64 // heap bytes allocated during the window
	gcs     uint32 // garbage collections during the window
	// live heap after the collections that opened and closed the window
	liveStart, liveEnd uint64
	delta              statsDelta
	logs               []*reqLog
}

// free releases the memory holding the window's responses.
func (w *window) free() {
	for _, l := range w.logs {
		l.release()
	}
	w.records, w.logs = nil, nil
}

// respWriter is a reusable in-memory http.ResponseWriter.
type respWriter struct {
	h      http.Header
	status int
	buf    bytes.Buffer
}

func (w *respWriter) Header() http.Header { return w.h }

func (w *respWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *respWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.buf.Write(p)
}

func (w *respWriter) reset() {
	clear(w.h)
	w.status = 0
	w.buf.Reset()
}

func newRespWriter() *respWriter { return &respWriter{h: make(http.Header)} }

// reqLog records one client's requests and response bodies in memory
// mapped outside the Go heap. The service's garbage collector paces itself
// by the live heap; a log that grew on the heap as the window went on would
// make collections rarer, and the service faster, the longer the window
// ran.
type reqLog struct {
	mem []byte
	n   int
}

// reqLogBytes is the address space reserved per client and window; pages
// are only backed once written.
const reqLogBytes = 1 << 30

const recHeader = 32 // c, j, status, body length (4 bytes each), at, dur (8 each)

func newReqLog() (*reqLog, error) {
	mem, err := syscall.Mmap(-1, 0, reqLogBytes, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_PRIVATE|syscall.MAP_ANON|syscall.MAP_NORESERVE)
	if err != nil {
		return nil, fmt.Errorf("reserving the request log: %w", err)
	}
	return &reqLog{mem: mem}, nil
}

func (l *reqLog) add(c, j, status int, at, dur time.Duration, resp []byte) error {
	if len(l.mem)-l.n < recHeader+len(resp) {
		return fmt.Errorf("request log full after %d bytes", l.n)
	}
	b := l.mem[l.n:]
	le := binary.LittleEndian
	le.PutUint32(b[0:], uint32(c))
	le.PutUint32(b[4:], uint32(j))
	le.PutUint32(b[8:], uint32(status))
	le.PutUint32(b[12:], uint32(len(resp)))
	le.PutUint64(b[16:], uint64(at))
	le.PutUint64(b[24:], uint64(dur))
	l.n += recHeader + copy(b[recHeader:], resp)
	return nil
}

// records decodes the log; response bodies alias the log's memory.
func (l *reqLog) records() []record {
	var out []record
	le := binary.LittleEndian
	for off := 0; off < l.n; {
		b := l.mem[off:]
		size := int(le.Uint32(b[12:]))
		out = append(out, record{
			c: int(le.Uint32(b[0:])), j: int(le.Uint32(b[4:])), status: int(le.Uint32(b[8:])),
			at:   time.Duration(le.Uint64(b[16:])),
			dur:  time.Duration(le.Uint64(b[24:])),
			resp: b[recHeader : recHeader+size : recHeader+size],
		})
		off += recHeader + size
	}
	return out
}

// release unmaps the log. A failure leaves the mapping to the process's
// exit, which follows soon; there is nothing else to do about it.
func (l *reqLog) release() { _ = syscall.Munmap(l.mem) }

// serveOne sends one request to the service.
func serveOne(svc *serve.Service, w *respWriter, method, path string, body []byte) error {
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	w.reset()
	svc.ServeHTTP(w, req)
	return nil
}

// sendChecked sends one set-up request and checks its answer.
func sendChecked(svc *serve.Service, body []byte, e expectation) error {
	w := newRespWriter()
	if err := serveOne(svc, w, http.MethodPost, "/v1/solve", body); err != nil {
		return err
	}
	_, err := checkAnswer(e, w.status, w.buf.Bytes())
	return err
}

// measure runs the closed loop for d. Client c continues its stream at
// request next[c]; on return next holds where each client stopped. When
// traced, every request is followed by its child-span replays.
func measure(b *bench, d time.Duration, next *[clients]int, traced bool) (*window, error) {
	before, err := readStats(b.svc)
	if err != nil {
		return nil, err
	}
	win := &window{}
	for range clients {
		l, err := newReqLog()
		if err != nil {
			win.free()
			return nil, err
		}
		win.logs = append(win.logs, l)
	}
	traces := make([][]*reqTrace, clients)
	errs := make([]error, clients)
	var ms0, ms1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			traces[c], errs[c] = runClient(b, c, next[c], start, d, traced, win.logs[c])
		}()
	}
	wg.Wait()
	win.wall = time.Since(start)
	runtime.ReadMemStats(&ms1)
	win.alloc, win.gcs, win.liveStart = ms1.TotalAlloc-ms0.TotalAlloc, ms1.NumGC-ms0.NumGC, ms0.HeapAlloc
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	win.liveEnd = ms1.HeapAlloc
	for _, err := range errs {
		if err != nil {
			win.free()
			return nil, err
		}
	}
	after, err := readStats(b.svc)
	if err != nil {
		win.free()
		return nil, err
	}
	win.delta = after.minus(before)
	for c, l := range win.logs {
		recs := l.records()
		for i := range recs {
			if traced {
				recs[i].trace = traces[c][i]
			}
		}
		next[c] += len(recs)
		win.records = append(win.records, recs...)
	}
	return win, nil
}

// runClient is one closed-loop client. It returns the traces of its
// requests when traced.
func runClient(b *bench, c, j0 int, start time.Time, d time.Duration, traced bool, log *reqLog) ([]*reqTrace, error) {
	w := newRespWriter()
	var body []byte
	var rt *replayer
	var traces []*reqTrace
	if traced {
		rt = newReplayer(start)
	}
	for j := j0; time.Since(start) < d; j++ {
		body = b.body(c, j, body[:0])
		req, err := http.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		w.reset()
		began := time.Now()
		b.svc.ServeHTTP(w, req)
		dur := time.Since(began)
		if err := log.add(c, j, w.status, began.Sub(start), dur, w.buf.Bytes()); err != nil {
			return nil, err
		}
		if rt != nil {
			traces = append(traces, rt.replay(began, dur, body, w.buf.Bytes()))
		}
	}
	return traces, nil
}

// statsDelta holds /v1/stats counters, or the change in them over a window.
type statsDelta map[string]int64

func readStats(svc *serve.Service) (statsDelta, error) {
	w := newRespWriter()
	if err := serveOne(svc, w, http.MethodGet, "/v1/stats", nil); err != nil {
		return nil, err
	}
	var st serve.Stats
	if err := json.Unmarshal(w.buf.Bytes(), &st); err != nil {
		return nil, fmt.Errorf("decoding /v1/stats: %w", err)
	}
	d := statsDelta{
		"requests":       st.Requests,
		"cacheHits":      st.CacheHits,
		"cacheMisses":    st.CacheMisses,
		"panics":         st.Panics,
		"shed":           st.Shed,
		"coalesced":      st.Coalesced,
		"solves":         st.Solves,
		"breakerTrips":   st.BreakerTrips,
		"solutionHits":   st.SolutionHits,
		"solutionMisses": st.SolutionMisses,
		"translations":   st.Translations,
		"routeSkips":     0,
	}
	for _, n := range st.RouteSkips {
		d["routeSkips"] += n
	}
	for k, v := range st.Engine {
		d[k] = v
	}
	return d, nil
}

func (d statsDelta) minus(before statsDelta) statsDelta {
	out := make(statsDelta, len(d))
	for k, v := range d {
		out[k] = v - before[k]
	}
	return out
}

func (d statsDelta) String() string {
	out, _ := json.Marshal(map[string]int64(d)) // keys sorted; cannot fail
	return string(out)
}

// expectCounts checks a window's counter deltas against want plus the
// invariants every workload shares: nothing shed, no route skipped,
// nothing coalesced, no panic, no breaker trip. Any of those would mean
// the run measured overload handling instead of the program.
func expectCounts(d statsDelta, want map[string]int64) []string {
	all := map[string]int64{"shed": 0, "routeSkips": 0, "coalesced": 0, "panics": 0, "breakerTrips": 0}
	for k, v := range want {
		all[k] = v
	}
	var bad []string
	for _, k := range slices.Sorted(maps.Keys(all)) {
		if d[k] != all[k] {
			bad = append(bad, fmt.Sprintf("%s = %d, want %d", k, d[k], all[k]))
		}
	}
	return bad
}
