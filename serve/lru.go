package serve

import (
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"sync"

	"repro"
	"repro/internal/pipeline"
	"repro/internal/platform"
	"repro/internal/resilience"
)

// sessionKey derives the warm-session cache key: a SHA-256 over the
// canonical JSON of the instance plus every session-level option, so two
// requests share a session exactly when they would construct identical
// ones.
func sessionKey(p *pipeline.Pipeline, pl *platform.Platform, workers int, budget float64, force bool, seed int64) (string, error) {
	blob, err := json.Marshal(struct {
		P       *pipeline.Pipeline `json:"p"`
		Pl      *platform.Platform `json:"pl"`
		Workers int                `json:"w"`
		Budget  float64            `json:"b"`
		Force   bool               `json:"f"`
		Seed    int64              `json:"s"`
	}{p, pl, workers, budget, force, seed})
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:]), nil
}

// canonicalSessionKey derives the warm-session cache key from the
// instance's canonical encoding: every processor relabeling of one
// platform hashes identically, so permuted variants of the same request
// warm (and reuse) a single session. The session-level options are mixed
// in because they shape session construction exactly as in sessionKey.
// The domain prefix keeps the canonical and raw-JSON key spaces disjoint
// in the shared session cache.
func canonicalSessionKey(canonBytes []byte, workers int, budget float64, force bool, seed int64) string {
	h := sha256.New()
	h.Write([]byte("canon-session\x00"))
	h.Write(canonBytes)
	fmt.Fprintf(h, "|%d|%x|%t|%d", workers, math.Float64bits(budget), force, seed)
	return hex.EncodeToString(h.Sum(nil))
}

// solutionKey derives the cross-request solution cache key: the
// canonical session key (which already digests the canonical instance
// bytes and the session-level tuning) plus everything else that shapes
// the answer — objective, the bi-criteria bounds, and the deadline (the
// adaptive router steers by it, so different deadlines may legitimately
// produce different complete answers). Relabeled copies of one request
// therefore hash to the same key and share one stored answer. Building
// on the session key avoids a second SHA-256 pass over the O(m²)
// canonical bytes on the request path.
func solutionKey(canonSessionKey string, objective repro.Objective, spec SolveSpec) string {
	h := sha256.New()
	h.Write([]byte("solution\x00"))
	h.Write([]byte(canonSessionKey))
	fmt.Fprintf(h, "|%d|%x|%x|%d",
		objective, math.Float64bits(spec.MaxLatency), math.Float64bits(spec.MaxFailProb),
		spec.DeadlineMillis)
	return hex.EncodeToString(h.Sum(nil))
}

// sessionCache is a mutex-guarded LRU of warm sessions. Hits move the
// entry to the front; inserts past capacity evict the back. Builds run
// OUTSIDE the lock — a slow session construction must not serialize
// unrelated cache hits — with concurrent misses for the same key
// coalesced onto one build by a per-key singleflight.
type sessionCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List
	items   map[string]*list.Element
	hits    int64
	misses  int64
	evicted int64

	flight resilience.Group[*repro.Session]
}

type cacheEntry struct {
	key  string
	sess *repro.Session
}

func newSessionCache(capacity int) *sessionCache {
	if capacity <= 0 {
		capacity = 128
	}
	return &sessionCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// getOrCreate returns the warm session for key, building (and inserting)
// it with build on a miss. hit reports whether the session was already
// warm. Every call counts exactly one hit or one miss, so
// hits + misses == lookups holds at all times.
func (c *sessionCache) getOrCreate(key string, build func() (*repro.Session, error)) (sess *repro.Session, hit bool, err error) {
	c.mu.Lock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		sess = el.Value.(*cacheEntry).sess
		c.mu.Unlock()
		return sess, true, nil
	}
	c.misses++
	c.mu.Unlock()

	built := false
	sess, _, err = c.flight.Do(context.Background(), key, func() (*repro.Session, error) {
		// Re-check under the lock: a previous leader may have finished
		// (and left the flight group) between our miss and this call.
		if s := c.peek(key); s != nil {
			return s, nil
		}
		built = true
		s, err := build()
		if err != nil {
			return nil, err
		}
		c.insert(key, s)
		return s, nil
	})
	if built || err != nil {
		return sess, false, err
	}
	// Another caller's build served this lookup (a concurrent duplicate,
	// or a leader that finished just before): the session was warm after
	// all, so the provisional miss becomes a hit.
	c.mu.Lock()
	c.misses--
	c.hits++
	c.mu.Unlock()
	return sess, true, nil
}

// peek returns the cached session for key without counting a lookup
// (refreshing its LRU position), or nil.
func (c *sessionCache) peek(key string) *repro.Session {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*cacheEntry).sess
	}
	return nil
}

// insert adds a freshly built session and evicts past capacity; a racing
// insert of the same key keeps the existing entry.
func (c *sessionCache) insert(key string, sess *repro.Session) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[key]; ok {
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, sess: sess})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*cacheEntry).key)
		c.evicted++
	}
}

// stats snapshots the cache counters.
func (c *sessionCache) stats() (hits, misses, evicted int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evicted, c.ll.Len()
}

// solutionCache is a mutex-guarded LRU of completed solve answers keyed
// by solutionKey. Stored results carry canonical-labeled mappings; the
// serve layer translates them into each requester's processor ids on the
// way out, so one stored answer serves every relabeling of its instance.
// Lookups happen inside the singleflight leader, so hit/miss counting
// lives with the caller; the cache itself only tracks size and eviction.
type solutionCache struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List
	items   map[string]*list.Element
	evicted int64
}

type solutionEntry struct {
	key string
	res SolveResult
}

func newSolutionCache(capacity int) *solutionCache {
	if capacity <= 0 {
		capacity = 256
	}
	return &solutionCache{
		cap:   capacity,
		ll:    list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// get returns the stored answer for key, refreshing its LRU position.
func (c *solutionCache) get(key string) (SolveResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		return el.Value.(*solutionEntry).res, true
	}
	return SolveResult{}, false
}

// put stores (or refreshes) an answer and evicts past capacity.
func (c *solutionCache) put(key string, res SolveResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*solutionEntry).res = res
		return
	}
	c.items[key] = c.ll.PushFront(&solutionEntry{key: key, res: res})
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.ll.Remove(back)
		delete(c.items, back.Value.(*solutionEntry).key)
		c.evicted++
	}
}

// stats snapshots the solution-cache counters.
func (c *solutionCache) stats() (evicted int64, size int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.evicted, c.ll.Len()
}
