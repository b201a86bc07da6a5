package resultcache

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"time"
)

func key(gen uint64, s string) Key { return KeyFor(gen, "goal", []byte(s)) }

func ent(body string) *Entry { return &Entry{Body: []byte(body), Paths: 1} }

func TestKeyForSeparatesEndpointsAndGenerations(t *testing.T) {
	blob := []byte(`{"query":{}}`)
	if KeyFor(0, "goal", blob) == KeyFor(0, "deadline", blob) {
		t.Fatalf("same key for different endpoints")
	}
	if KeyFor(0, "goal", blob) != KeyFor(0, "goal", blob) {
		t.Fatalf("key not deterministic")
	}
	if KeyFor(0, "goal", blob) == KeyFor(1, "goal", blob) {
		t.Fatalf("same key across generations")
	}
	// The endpoint/body boundary must not be ambiguous.
	if KeyFor(0, "goalx", []byte("y")) == KeyFor(0, "goal", []byte("xy")) {
		t.Fatalf("endpoint/body boundary ambiguous")
	}
}

func TestGetPutHit(t *testing.T) {
	c := New(1 << 20)
	k := key(0, "a")
	if _, ok := c.Get(k); ok {
		t.Fatalf("hit on empty cache")
	}
	c.Put(k, ent("body"))
	got, ok := c.Get(k)
	if !ok || string(got.Body) != "body" {
		t.Fatalf("Get = %v, %v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEvictionByBytes(t *testing.T) {
	// Budget fits two entries (body 100 + overhead each), not three.
	c := New(2 * (100 + entryOverhead))
	bodies := make([]byte, 100)
	for i := 0; i < 3; i++ {
		c.Put(key(0, fmt.Sprint(i)), &Entry{Body: bodies})
	}
	if _, ok := c.Get(key(0, "0")); ok {
		t.Fatalf("LRU entry not evicted")
	}
	for _, id := range []string{"1", "2"} {
		if _, ok := c.Get(key(0, id)); !ok {
			t.Fatalf("recent entry %s evicted", id)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v", st)
	}
	// The loop above touched "1" then "2", so "1" is now the LRU victim.
	c.Put(key(0, "3"), &Entry{Body: bodies})
	if _, ok := c.Get(key(0, "2")); !ok {
		t.Fatalf("recently used entry evicted")
	}
	if _, ok := c.Get(key(0, "1")); ok {
		t.Fatalf("LRU entry survived")
	}
}

func TestPutReplaceAdjustsBytes(t *testing.T) {
	c := New(1 << 20)
	k := key(0, "a")
	c.Put(k, ent("short"))
	c.Put(k, ent("a much longer body than before"))
	st := c.Stats()
	if st.Entries != 1 {
		t.Fatalf("replace duplicated entry: %+v", st)
	}
	if want := int64(len("a much longer body than before")) + entryOverhead; st.Bytes != want {
		t.Fatalf("bytes = %d, want %d", st.Bytes, want)
	}
}

func TestPutOversizedAndStaleGenRejected(t *testing.T) {
	c := New(100)
	c.Put(key(0, "big"), &Entry{Body: make([]byte, 200)})
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("oversized entry stored: %+v", st)
	}
	c.Invalidate(1)
	c.Put(key(0, "old"), ent("x"))
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("stale-generation entry stored: %+v", st)
	}
	if _, ok := c.Get(key(0, "old")); ok {
		t.Fatalf("stale-generation key hit")
	}
}

func TestInvalidateDropsEntriesAndFlights(t *testing.T) {
	c := New(1 << 20)
	k := key(0, "a")
	c.Put(k, ent("x"))
	f, leader := c.Join(k)
	if !leader {
		t.Fatalf("first Join not leader")
	}
	c.Invalidate(1)
	if _, ok := c.Get(k); ok {
		t.Fatalf("pre-reload entry survived Invalidate")
	}
	// A new joiner for the old key leads its own flight (old one dropped).
	if _, leader := c.Join(k); !leader {
		t.Fatalf("post-Invalidate Join did not lead")
	}
	// The pre-reload leader still finishes; its entry must not be stored.
	c.Finish(k, f, ent("stale"))
	if e := f.Wait(context.Background()); e == nil || string(e.Body) != "stale" {
		t.Fatalf("pre-reload followers lost the leader's result")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("stale flight result cached: %+v", st)
	}
}

func TestCoalescingFollowersShareResult(t *testing.T) {
	c := New(1 << 20)
	k := key(0, "a")
	lead, leader := c.Join(k)
	if !leader {
		t.Fatalf("first Join not leader")
	}
	const followers = 5
	var wg sync.WaitGroup
	results := make([]*Entry, followers)
	for i := 0; i < followers; i++ {
		f, isLeader := c.Join(k)
		if isLeader {
			t.Fatalf("follower %d became leader", i)
		}
		wg.Add(1)
		go func(i int, f *Flight) {
			defer wg.Done()
			results[i] = f.Wait(context.Background())
		}(i, f)
	}
	c.Finish(k, lead, ent("shared"))
	wg.Wait()
	for i, e := range results {
		if e == nil || string(e.Body) != "shared" {
			t.Fatalf("follower %d result = %v", i, e)
		}
	}
	st := c.Stats()
	if st.Coalesced != followers {
		t.Fatalf("coalesced = %d, want %d", st.Coalesced, followers)
	}
	if _, ok := c.Get(k); !ok {
		t.Fatalf("finished flight result not cached")
	}
	// The flight is deregistered: the next Join leads again.
	if _, leader := c.Join(k); !leader {
		t.Fatalf("Join after Finish did not lead")
	}
}

// TestGetOrJoin: one call answers what Get then Join would, under one
// lock — a miss leads, a caller during the flight follows it, and once
// the leader's Finish has published the entry the next caller hits
// instead of leading a second computation.
func TestGetOrJoin(t *testing.T) {
	c := New(1 << 20)
	k := key(0, "a")
	e, lead, leader := c.GetOrJoin(k)
	if e != nil || !leader {
		t.Fatalf("first GetOrJoin on an empty cache = (%v, leader %v), want to lead", e, leader)
	}
	e, f, leader := c.GetOrJoin(k)
	if e != nil || leader || f != lead {
		t.Fatalf("GetOrJoin during the flight = (%v, leader %v), want to follow it", e, leader)
	}
	c.Finish(k, lead, ent("x"))
	e, f, leader = c.GetOrJoin(k)
	if e == nil || string(e.Body) != "x" || f != nil || leader {
		t.Fatalf("GetOrJoin after Finish = (%v, %v, leader %v), want the published entry", e, f, leader)
	}
	if st := c.Stats(); st.Hits != 1 || st.Misses != 2 || st.Coalesced != 1 {
		t.Fatalf("stats = %+v, want 1 hit, 2 misses, 1 coalesced", st)
	}
}

func TestFinishNilWakesFollowersWithoutCaching(t *testing.T) {
	c := New(1 << 20)
	k := key(0, "a")
	lead, _ := c.Join(k)
	f, _ := c.Join(k)
	done := make(chan *Entry, 1)
	go func() { done <- f.Wait(context.Background()) }()
	c.Finish(k, lead, nil)
	if e := <-done; e != nil {
		t.Fatalf("nil Finish delivered an entry: %v", e)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("nil Finish cached something: %+v", st)
	}
}

func TestWaitHonoursContext(t *testing.T) {
	c := New(1 << 20)
	f, _ := c.Join(key(0, "a"))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if e := f.Wait(ctx); e != nil {
		t.Fatalf("Wait returned entry after context expiry: %v", e)
	}
}

// Concurrency smoke for the race detector: gets, puts, joins, stale
// lookups and invalidations interleaving freely.
func TestConcurrentMixedUse(t *testing.T) {
	c := New(4096)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := key(uint64(i%3), fmt.Sprint(i%7))
				if _, ok := c.Get(k); !ok {
					c.Stale(k)
					f, leader := c.Join(k)
					if leader {
						c.Finish(k, f, ent("x"))
					} else {
						ctx, cancel := context.WithTimeout(context.Background(), time.Second)
						f.Wait(ctx)
						cancel()
					}
				}
				if w == 0 && i%50 == 0 {
					c.Invalidate(uint64(i % 3))
				}
			}
		}(w)
	}
	wg.Wait()
	c.Stats() // must not race either
}

// TestSetBudgetEvictsToFit: shrinking the budget (the multi-tenant
// fair-share re-carve) evicts LRU entries until the resident set fits,
// keeping the most recently used entries; growing it evicts nothing.
func TestSetBudgetEvictsToFit(t *testing.T) {
	c := New(10 * (entryOverhead + 4))
	for i := 0; i < 10; i++ {
		c.Put(key(0, fmt.Sprintf("k%02d", i)), ent("xxxx"))
	}
	if st := c.Stats(); st.Entries != 10 || st.Evictions != 0 {
		t.Fatalf("warm-up: %+v", st)
	}
	// Touch the three newest-by-use entries so eviction order is pinned.
	for _, s := range []string{"k07", "k08", "k09"} {
		if _, ok := c.Get(key(0, s)); !ok {
			t.Fatalf("warm entry %s missing", s)
		}
	}
	c.SetBudget(3 * (entryOverhead + 4))
	if got := c.Budget(); got != 3*(entryOverhead+4) {
		t.Fatalf("Budget() = %d", got)
	}
	st := c.Stats()
	if st.Entries != 3 || st.Evictions != 7 {
		t.Fatalf("after shrink: %+v, want 3 entries / 7 evictions", st)
	}
	for _, s := range []string{"k07", "k08", "k09"} {
		if _, ok := c.Get(key(0, s)); !ok {
			t.Errorf("recently used entry %s evicted by shrink", s)
		}
	}
	// Growing changes nothing until new puts use the headroom.
	c.SetBudget(20 * (entryOverhead + 4))
	if st := c.Stats(); st.Entries != 3 {
		t.Errorf("grow evicted entries: %+v", st)
	}
}

// TestStaleRetainsExactlyOneGeneration: Invalidate moves the displaced
// entries into the stale table; the next Invalidate replaces them, so a
// hash from two generations back gets nothing — staleness is bounded at
// one snapshot generation.
func TestStaleRetainsExactlyOneGeneration(t *testing.T) {
	c := New(1 << 20)
	c.Put(key(0, "survivor"), ent("gen0 body"))
	if _, ok := c.Stale(key(0, "survivor")); ok {
		t.Fatal("stale hit before any invalidation")
	}
	c.Invalidate(1)
	if _, ok := c.Get(key(1, "survivor")); ok {
		t.Fatal("live hit across generations")
	}
	e, ok := c.Stale(key(1, "survivor"))
	if !ok || string(e.Body) != "gen0 body" {
		t.Fatalf("stale = %v, %v; want the gen0 body", e, ok)
	}
	// A key minted against the old generation must not see stale data.
	if _, ok := c.Stale(key(0, "survivor")); ok {
		t.Error("stale served for a non-current-generation key")
	}
	st := c.Stats()
	if st.StaleEntries != 1 || st.StaleHits != 1 {
		t.Errorf("stats = %+v, want 1 stale entry / 1 stale hit", st)
	}
	// Second reload: gen0 entries are gone for good.
	c.Invalidate(2)
	if _, ok := c.Stale(key(2, "survivor")); ok {
		t.Error("entry survived two invalidations — staleness unbounded")
	}
	if st := c.Stats(); st.StaleEntries != 0 {
		t.Errorf("stale entries after empty-gen reload = %d, want 0", st.StaleEntries)
	}
}

// TestStaleMissesUnknownHash: only hashes actually cached in the previous
// generation are served stale.
func TestStaleMissesUnknownHash(t *testing.T) {
	c := New(1 << 20)
	c.Put(key(0, "a"), ent("a body"))
	c.Invalidate(1)
	if _, ok := c.Stale(key(1, "never-cached")); ok {
		t.Error("stale hit for a hash that was never cached")
	}
}

// TestStaleYieldsToLiveEntry: once the live generation holds a key, its
// previous-generation entry is no longer offered, so a caller that asks
// Stale before Get never replays an old answer over a fresh one.
func TestStaleYieldsToLiveEntry(t *testing.T) {
	c := New(1 << 20)
	c.Put(key(0, "a"), ent("gen0 body"))
	c.Invalidate(1)
	if e, ok := c.Stale(key(1, "a")); !ok || string(e.Body) != "gen0 body" {
		t.Fatalf("stale = %v, %v before the live entry exists; want the gen0 body", e, ok)
	}
	c.Put(key(1, "a"), ent("gen1 body"))
	if e, ok := c.Stale(key(1, "a")); ok {
		t.Errorf("stale served %q while the live generation holds the key", e.Body)
	}
	if st := c.Stats(); st.StaleHits != 1 {
		t.Errorf("stale hits = %d, want 1 (the refused lookup is not a hit)", st.StaleHits)
	}
}

// populated returns a cache holding n entries under generation 0 and a
// reset that reinstalls that live table, so a loop can run Invalidate over
// the same n entries again and again.
func populated(n int) (*Cache, func()) {
	c := New(1 << 30)
	for i := 0; i < n; i++ {
		c.Put(key(0, strconv.Itoa(i)), ent("body"))
	}
	ll, byKey, bytes := c.ll, c.byKey, c.bytes
	return c, func() {
		c.mu.Lock()
		c.gen, c.ll, c.byKey, c.bytes = 0, ll, byKey, bytes
		c.mu.Unlock()
	}
}

// TestInvalidateCostIndependentOfSize: Invalidate keeps the displaced live
// map as the stale table instead of copying it, so it allocates no more at
// 10,000 entries than at 10, and the stale table still serves them all.
func TestInvalidateCostIndependentOfSize(t *testing.T) {
	allocs := func(n int) float64 {
		c, reset := populated(n)
		got := testing.AllocsPerRun(20, func() { reset(); c.Invalidate(1) })
		if st := c.Stats(); st.StaleEntries != n {
			t.Fatalf("%d entries: %d stale after Invalidate", n, st.StaleEntries)
		}
		if _, ok := c.Stale(key(1, strconv.Itoa(n-1))); !ok {
			t.Fatalf("%d entries: last entry not served stale", n)
		}
		return got
	}
	if small, large := allocs(10), allocs(10000); large > small {
		t.Fatalf("Invalidate allocs/op = %v at 10 entries, %v at 10,000", small, large)
	}
}

// BenchmarkCacheInvalidate times one reload's Invalidate over a
// 10,000-entry live table. Every iteration reinstalls the same populated
// table, so only the generation swap is timed: its allocs/op and B/op
// must not grow with the entry count.
func BenchmarkCacheInvalidate(b *testing.B) {
	c, reset := populated(10000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reset()
		c.Invalidate(1)
	}
}
