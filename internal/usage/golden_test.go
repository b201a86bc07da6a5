package usage

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// goldenLog records a seeded event stream that wraps a 96-slot ring
// three times, spans two tenants plus tenant-less traffic and uses every
// documented value of every enum field. It returns the ring and every
// event recorded, oldest first.
func goldenLog() (*Log, []Event) {
	rng := rand.New(rand.NewSource(2016))
	pick := func(vals ...string) string { return vals[rng.Intn(len(vals))] }
	l := NewLog(96)
	var all []Event
	for i := 0; i < 300; i++ {
		e := Event{
			When:      time.Unix(1_700_000_000+int64(i), int64(rng.Intn(1e9))).UTC(),
			Endpoint:  pick("POST /api/v1/explore/goal", "POST /api/v1/explore/deadline", "POST /api/v1/cohort", "GET /api/v1/stats", "POST /api/v1/admin/reload", "SIGHUP reload"),
			Tenant:    pick("", "alpha", "beta", "beta"),
			Window:    pick("", "", "Fall 2013 → Fall 2015", "Fall 2012 → Fall 2015", "Spring 2014 → Fall 2016"),
			Stopped:   pick("", "", "canceled", "deadline", "max-nodes", "max-paths"),
			Reload:    pick("", "", "applied", "rejected"),
			Cache:     pick("", "hit", "coalesced", "miss", "stale"),
			Admission: pick("", "", "queued", "shed_costly", "shed_queue_full", "queue_timeout"),
			Breaker:   pick("", "", "", "tripped", "open"),
			Duration:  time.Duration(rng.Int63n(int64(50 * time.Millisecond))),
			Status:    []int{200, 200, 200, 400, 404, 422, 429, 499, 503}[rng.Intn(9)],
		}
		flags := rng.Intn(64)
		e.Streamed = flags&1 != 0
		e.WriteAborted = flags&2 != 0
		e.Degraded = flags&4 != 0
		e.DAG = flags&8 != 0
		e.Cohort = flags&16 != 0
		e.CohortCancelled = flags&32 != 0
		if rng.Intn(2) == 0 {
			e.Paths = rng.Int63n(1 << 40)
			e.StreamedPaths = rng.Int63n(1000)
			e.DAGNodes = rng.Int63n(1 << 20)
		}
		if e.Cohort {
			e.CohortMembers = rng.Int63n(10000)
			e.CohortCoalesced = rng.Int63n(20000)
			e.CohortSharedHits = rng.Int63n(20000)
			e.CohortDPReused = rng.Int63n(1 << 30)
		}
		l.Record(e)
		all = append(all, e)
	}
	return l, all
}

// goldenStats renders the /stats aggregates of goldenLog's ring: the
// fleet aggregate, each tenant's aggregate and the tenant breakdown.
func goldenStats(t *testing.T) []byte {
	t.Helper()
	l, _ := goldenLog()
	b, err := json.MarshalIndent(map[string]any{
		"snapshot":     l.Snapshot(),
		"alpha":        l.SnapshotTenant("alpha"),
		"beta":         l.SnapshotTenant("beta"),
		"none":         l.SnapshotTenant(""),
		"tenantCounts": l.TenantCounts(),
	}, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// TestStatsGolden holds every /stats byte the ring serves to a recording
// made before the ring stored compact slots.
func TestStatsGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/stats_golden.json")
	if err != nil {
		t.Fatal(err)
	}
	if got := goldenStats(t); !bytes.Equal(got, want) {
		t.Errorf("stats JSON differs from testdata/stats_golden.json (%d vs %d bytes)", len(got), len(want))
	}
}

// TestEventsRoundTrip: Events returns exactly the last capacity events
// recorded, field for field, after the ring has wrapped.
func TestEventsRoundTrip(t *testing.T) {
	l, all := goldenLog()
	want := all[len(all)-96:]
	if got := l.Events(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Events differ from the last %d recorded events", len(want))
	}
	if l.Len() != 96 {
		t.Errorf("Len = %d, want 96", l.Len())
	}
}

// TestEnumCodes: enumCode and enumNames agree on every documented value.
func TestEnumCodes(t *testing.T) {
	for i, name := range enumNames {
		if c, ok := enumCode(name); !ok || int(c) != i {
			t.Errorf("enumCode(%q) = %d, %v; want %d", name, c, ok, i)
		}
	}
	if _, ok := enumCode("admitted"); ok {
		t.Error(`enumCode("admitted") is known, want unknown`)
	}
}

// TestUndocumentedValuesRoundTrip: events a compact slot cannot encode
// (an enum value outside the documented set, a status beyond int16) are
// kept whole, so Events never loses a byte.
func TestUndocumentedValuesRoundTrip(t *testing.T) {
	l := NewLog(4)
	in := []Event{
		{Endpoint: "POST /api/v1/explore/goal", Admission: "admitted", Status: 200},
		{Endpoint: "POST /api/v1/explore/goal", Stopped: "unknown", Cache: "hit", Status: 200},
		{Endpoint: "GET /x", Status: 1 << 20, Streamed: true},
		{Endpoint: "GET /y", Breaker: "closed", DAG: true, DAGNodes: 9, Status: 200},
		{Endpoint: "GET /z", Cache: "miss", Status: 200},
	}
	for _, e := range in {
		l.Record(e)
	}
	if got := l.Events(); !reflect.DeepEqual(got, in[1:]) {
		t.Fatalf("Events = %+v\nwant %+v", got, in[1:])
	}
}

// TestNewLogAllocatesOnDemand: an idle ring costs almost nothing; its
// storage arrives with the events.
func TestNewLogAllocatesOnDemand(t *testing.T) {
	const runs = 1000
	logs := make([]*Log, runs)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := range logs {
		logs[i] = NewLog(4096)
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / runs; got > 4<<10 {
		t.Errorf("NewLog(4096) allocated %d bytes before any Record, want ≤ 4 KiB", got)
	}
	l := logs[0]
	for i := 0; i < 5000; i++ {
		l.Record(Event{Endpoint: "GET /api/v1/catalog", Status: 200})
	}
	held := 0
	for _, b := range l.blocks {
		held += len(b)
	}
	if l.Len() != 4096 || held != 4096 {
		t.Errorf("full ring: Len = %d, %d slots allocated, want 4096/4096", l.Len(), held)
	}
	// A capacity that is not a block multiple allocates exactly.
	odd := NewLog(300)
	for i := 0; i < 1000; i++ {
		odd.Record(Event{Status: i})
	}
	if got := len(odd.blocks[0]) + len(odd.blocks[1]); len(odd.blocks) != 2 || got != 300 {
		t.Errorf("NewLog(300) allocated %d blocks, %d slots; want 2 blocks, 300 slots", len(odd.blocks), got)
	}
	if ev := odd.Events(); len(ev) != 300 || ev[0].Status != 700 || ev[299].Status != 999 {
		t.Errorf("NewLog(300) holds %d events from %d to %d, want 300 from 700 to 999", len(ev), ev[0].Status, ev[len(ev)-1].Status)
	}
}
