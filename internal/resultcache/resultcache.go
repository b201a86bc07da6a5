// Package resultcache caches rendered exploration responses between catalog
// reloads. The paper's interactive setting (§5) makes repeated near-identical
// queries the dominant workload — a student tweaks one knob and re-explores —
// while the underlying catalog changes on semester timescales, so a response
// computed once can serve every identical request until the next reload.
//
// The cache is a cost-aware LRU: the budget is in bytes and each entry is
// charged its materialized body size, so one huge graph response cannot
// silently displace thousands of cheap count summaries without accounting.
// Every key embeds the catalog snapshot generation, which makes invalidation
// O(1): after a reload bumps the generation, old entries can never match a
// new request's key, and Invalidate drops them wholesale.
//
// Concurrent identical misses coalesce: the first request becomes the
// flight leader and runs the exploration, followers block on the flight and
// share the rendered result. A leader that cannot produce a cacheable result
// finishes the flight with nil, and followers fall back to computing
// individually — coalescing is an optimisation, never a correctness gate.
//
// Invalidation retains the displaced generation's entries for the server's
// brownout mode: when degraded, a request that misses the live cache may be
// answered from the previous snapshot's entry, marked stale, instead of
// being shed. The stale table is simply the previous generation's live map,
// kept as it stood and looked up under that generation, so Invalidate
// copies nothing. Every Invalidate replaces it, so it only ever holds the
// immediately preceding generation — staleness is bounded at one snapshot
// generation by construction.
package resultcache

import (
	"container/list"
	"context"
	"crypto/sha256"
	"sync"
	"sync/atomic"
)

// Key identifies one cacheable response: the catalog snapshot generation and
// a digest of the canonicalized request plus the endpoint that handles it.
type Key struct {
	Gen  uint64
	Hash [sha256.Size]byte
}

// KeyFor derives the cache key for a canonicalized request blob hitting
// endpoint (e.g. "goal") under catalog snapshot gen. The endpoint is folded
// into the digest so equal request bodies posted to different endpoints
// (goal vs. deadline) never share an entry.
func KeyFor(gen uint64, endpoint string, canonical []byte) Key {
	h := sha256.New()
	h.Write([]byte(endpoint))
	h.Write([]byte{0})
	h.Write(canonical)
	var k Key
	k.Gen = gen
	h.Sum(k.Hash[:0])
	return k
}

// Entry is one cached response: the exact bytes written to the socket plus
// the annotations the usage log records about the run.
type Entry struct {
	// Body is the rendered JSON response, replayed byte-for-byte on a hit.
	Body []byte
	// Paths is the run's generated-path count, re-recorded in the usage
	// event of every replay.
	Paths int64
	// Window is the request's semester window annotation.
	Window string
}

// entryOverhead approximates the per-entry bookkeeping cost (list element,
// map slot, Entry header) charged on top of the body bytes.
const entryOverhead = 256

func (e *Entry) size() int64 { return int64(len(e.Body)) + entryOverhead }

// Flight is one in-progress computation that concurrent identical requests
// share. The leader computes and calls Cache.Finish; followers Wait.
type Flight struct {
	done chan struct{}
	ent  *Entry // written once, before done is closed
}

// Wait blocks until the flight finishes or ctx is done. It returns the
// leader's entry, or nil when the leader produced nothing cacheable (or the
// context fired first) — the caller must then compute individually.
func (f *Flight) Wait(ctx context.Context) *Entry {
	select {
	case <-f.done:
		return f.ent
	case <-ctx.Done():
		return nil
	}
}

// Cache is the snapshot-versioned result cache. The zero value is not
// usable; construct with New. All methods are safe for concurrent use.
type Cache struct {
	mu      sync.Mutex
	budget  int64
	gen     uint64
	ll      *list.List // front = most recently used; values are *node
	byKey   map[Key]*list.Element
	bytes   int64
	flights map[Key]*Flight
	// stale is the previous generation's live map, keyed under staleGen;
	// its elements belong to a list nothing else touches any more.
	stale    map[Key]*list.Element
	staleGen uint64

	hits, misses, coalesced, evictions, staleHits atomic.Int64
}

type node struct {
	key Key
	ent *Entry
}

// New returns a cache holding at most budget bytes of response bodies.
func New(budget int64) *Cache {
	return &Cache{
		budget:  budget,
		ll:      list.New(),
		byKey:   map[Key]*list.Element{},
		flights: map[Key]*Flight{},
	}
}

// Get returns the entry for k, if any, marking it most recently used.
func (c *Cache) Get(k Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.get(k)
}

// GetOrJoin is Get and, on a miss, Join under one lock: it returns k's
// entry when the cache holds one, else the flight to lead or wait on.
// Called one after the other, a Get that misses just before a leader's
// Finish publishes k is followed by a Join that finds no flight, and the
// caller leads a second computation of an entry the cache already holds.
func (c *Cache) GetOrJoin(k Key) (e *Entry, f *Flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.get(k); ok {
		return e, nil, false
	}
	f, leader = c.join(k)
	return nil, f, leader
}

func (c *Cache) get(k Key) (*Entry, bool) {
	if k.Gen == c.gen {
		if el, ok := c.byKey[k]; ok {
			c.ll.MoveToFront(el)
			c.hits.Add(1)
			return el.Value.(*node).ent, true
		}
	}
	c.misses.Add(1)
	return nil, false
}

// Put stores an entry, evicting least-recently-used entries until the byte
// budget holds. Entries from a stale generation (or larger than the whole
// budget) are dropped silently — the catalog they describe is gone.
func (c *Cache) Put(k Key, e *Entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.put(k, e)
}

func (c *Cache) put(k Key, e *Entry) {
	if e == nil || k.Gen != c.gen || e.size() > c.budget {
		return
	}
	if el, ok := c.byKey[k]; ok {
		old := el.Value.(*node)
		c.bytes += e.size() - old.ent.size()
		old.ent = e
		c.ll.MoveToFront(el)
	} else {
		c.byKey[k] = c.ll.PushFront(&node{key: k, ent: e})
		c.bytes += e.size()
	}
	c.evictToBudget()
}

// evictToBudget drops least-recently-used entries until bytes fit the
// budget. Caller holds mu.
func (c *Cache) evictToBudget() {
	for c.bytes > c.budget {
		el := c.ll.Back()
		if el == nil {
			break
		}
		n := el.Value.(*node)
		c.ll.Remove(el)
		delete(c.byKey, n.key)
		c.bytes -= n.ent.size()
		c.evictions.Add(1)
	}
}

// SetBudget changes the byte budget, evicting least-recently-used
// entries until the resident set fits. The multi-tenant server uses it
// to re-carve fair partition shares out of the global budget whenever
// the tenant registry grows or shrinks.
func (c *Cache) SetBudget(budget int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.budget = budget
	c.evictToBudget()
}

// Budget returns the current byte budget.
func (c *Cache) Budget() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.budget
}

// Join registers interest in computing k. The first caller becomes the
// leader (leader == true) and must eventually call Finish with the same
// flight; later callers get the existing flight to Wait on.
func (c *Cache) Join(k Key) (f *Flight, leader bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.join(k)
}

func (c *Cache) join(k Key) (f *Flight, leader bool) {
	if f, ok := c.flights[k]; ok {
		c.coalesced.Add(1)
		return f, false
	}
	f = &Flight{done: make(chan struct{})}
	c.flights[k] = f
	return f, true
}

// Finish completes a flight: followers wake with e (which may be nil when
// the leader's run turned out uncacheable), and a non-nil e is also stored
// in the cache. The flight is deregistered only if it is still the one
// registered for k — an intervening Invalidate may have replaced the map.
func (c *Cache) Finish(k Key, f *Flight, e *Entry) {
	c.mu.Lock()
	if c.flights[k] == f {
		delete(c.flights, k)
	}
	f.ent = e
	c.put(k, e)
	c.mu.Unlock()
	close(f.done)
}

// Stale returns the previous generation's entry matching k's request hash,
// if one survived the last Invalidate and the live generation does not
// hold k: a stale answer never shadows a fresh one, so a caller may ask
// Stale before Get. k must carry the current generation — a key minted
// against an older snapshot gets nothing (its "stale" answer would be two
// or more generations old). The entry replays exactly as it was
// rendered; the caller is responsible for marking the response stale.
func (c *Cache) Stale(k Key) (*Entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k.Gen != c.gen {
		return nil, false
	}
	if _, live := c.byKey[k]; live {
		return nil, false
	}
	el, ok := c.stale[Key{Gen: c.staleGen, Hash: k.Hash}]
	if !ok {
		return nil, false
	}
	c.staleHits.Add(1)
	return el.Value.(*node).ent, true
}

// Invalidate installs a new catalog generation: every cached entry and every
// registered flight belongs to the old snapshot and is dropped from the live
// table. In-flight leaders still Finish their (now unregistered) flights, so
// followers that joined before the reload wake normally; the stale entry is
// rejected by put's generation check.
//
// The dropped generation's live map becomes the stale table as it stands,
// replacing whatever it held, so Stale serves at most one generation back.
// Nothing is copied: Invalidate costs the same at any cache size.
func (c *Cache) Invalidate(gen uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stale, c.staleGen = c.byKey, c.gen
	c.gen = gen
	c.ll = list.New()
	c.byKey = map[Key]*list.Element{}
	c.bytes = 0
	c.flights = map[Key]*Flight{}
}

// Stats is a point-in-time snapshot of the cache counters.
type Stats struct {
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Coalesced    int64 `json:"coalesced"`
	Evictions    int64 `json:"evictions"`
	Bytes        int64 `json:"bytes"`
	Entries      int   `json:"entries"`
	StaleEntries int   `json:"staleEntries"`
	StaleHits    int64 `json:"staleHits"`
}

// Stats returns the current counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	bytes, entries, staleEntries := c.bytes, len(c.byKey), len(c.stale)
	c.mu.Unlock()
	return Stats{
		Hits:         c.hits.Load(),
		Misses:       c.misses.Load(),
		Coalesced:    c.coalesced.Load(),
		Evictions:    c.evictions.Load(),
		Bytes:        bytes,
		Entries:      entries,
		StaleEntries: staleEntries,
		StaleHits:    c.staleHits.Load(),
	}
}
