package overload

// Zero-cost-when-disabled property of the overload plane's metrics: a
// controller without an obs scope must not allocate on its per-request
// and per-poll paths (no metric names built for a silent scope).

import "testing"

func TestControllerNoAllocsWhenObsDisabled(t *testing.T) {
	c := New(&Config{Name: "alloc", DeadlineCycles: 100_000, RatePerCycle: 0.01})
	now := int64(0)
	cycle := func() {
		now += 1_000
		c.Poll(now, 500)
		if v := c.Admit(now, Request{Arrival: now, EstDelayCycles: 500}); v.Admitted() {
			c.StartOrExpire(now, now+100_000, 1_000)
		}
		c.Observe(now, 800, false)
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	n := testing.AllocsPerRun(1000, cycle)
	if n != 0 {
		t.Errorf("Poll+Admit+StartOrExpire+Observe allocated %.2f times per cycle with obs disabled, want 0", n)
	}
	if s := c.Snapshot(); s.Admitted == 0 || s.Started == 0 || s.Completed == 0 {
		t.Fatalf("snapshot %+v: the measurement missed the admit/start/observe paths", s)
	}
}
