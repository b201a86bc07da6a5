package admission

import (
	"context"
	"testing"
	"time"
)

// TestQueueCancelIsNotAShed: a queued request whose context is
// cancelled (its client left) gives its place up without a shed — no
// counter moves and the state does not latch degraded — while one whose
// deadline expires is still a queue timeout (TestQueueTimeout).
func TestQueueCancelIsNotAShed(t *testing.T) {
	cfg := testConfig()
	cfg.QueueTimeout = time.Second
	c := New(cfg)
	rel, _ := c.Acquire(context.Background(), 1)
	defer rel()
	ctx, cancel := context.WithCancel(context.Background())
	time.AfterFunc(10*time.Millisecond, cancel)
	release, out := c.Acquire(ctx, 1)
	if out != Canceled || release != nil {
		t.Fatalf("outcome = %v, want Canceled with no release", out)
	}
	if out.Shed() {
		t.Error("Canceled reports a shed")
	}
	snap := c.Snapshot()
	if snap.ShedTimeout != 0 || snap.ShedQueueFull != 0 || snap.ShedCostly != 0 || snap.Queued != 0 {
		t.Errorf("counters moved for a departed client: %+v", snap)
	}
	if snap.Waiters != 0 {
		t.Errorf("waiters = %d after the departure", snap.Waiters)
	}
	if got := c.State(); got == StateDegraded {
		t.Errorf("state = %v, want no brownout latch", got)
	}
}
