package fleet

import (
	"cmp"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/overload"
	"repro/internal/sim"
)

// tripBreaker forces backend i's health breaker Open.
func tripBreaker(t *testing.T, b *balancer, i int) {
	t.Helper()
	for k := int64(0); k < 6; k++ {
		b.bk[i].hc.Observe(k*HealthIntervalCycles, 0, true)
		b.bk[i].hc.Poll(k*HealthIntervalCycles, 0)
	}
	if b.bk[i].hc.BreakerState() != overload.Open {
		t.Fatalf("backend %d breaker did not open under forced failures", i)
	}
}

func byArrivalID(a, b attempt) int {
	return cmp.Or(cmp.Compare(a.arrival, b.arrival), cmp.Compare(a.id, b.id))
}

// The epoch's k-way merge must route attempts in exactly the order a
// full sort on (arrival, id) gives. Each seed builds one epoch from
// the real producers: per-tenant arrival streams with catch-up-clamped
// first arrivals (at < t0), due hedges, and overdue retries whose
// clamp to the epoch start ties them on arrival with ids out of
// scheduled-time order, next to retries scheduled exactly at t0.
func TestEpochMergeMatchesSort(t *testing.T) {
	const retryIDBase, retryIDHigh = 1, 1 << 40
	var clampedArrivals, tiedRetriesOutOfOrder, hedges, maxRuns int
	for seed := uint64(1); seed <= 300; seed++ {
		rng := sim.NewRNG(seed)
		cfg := Config{
			Replicas:         4,
			Tenants:          1 + int(rng.Intn(8)),
			Seed:             seed,
			HorizonCycles:    1 << 40,
			LoadFactor:       0.5 + rng.Float64(),
			HedgeDelayCycles: 100_000,
		}.withDefaults()
		f := newFleetState(cfg)
		cl := f.cl
		t0 := EpochCycles * (100 + rng.Intn(1000))
		t1 := t0 + EpochCycles

		// Hedge candidates: first attempts sent before t0, in send order.
		send := t0 - cfg.HedgeDelayCycles - 4*EpochCycles
		for n := rng.Intn(6); n > 0; n-- {
			send += rng.Intn(EpochCycles)
			a := cl.inject(int(rng.Intn(int64(cfg.Tenants))), send, 5_000)
			cl.noteAttempt(&a)
			cl.bindReplica(&a, int(rng.Intn(int64(cfg.Replicas))))
		}
		cl.hedgeBudget = 100

		// Retries, ids drawn below and far above the epoch's fresh ids;
		// the scheduled times are shuffled against the ids.
		var pushed []attempt
		for n := rng.Intn(12); n > 0; n-- {
			id := int64(retryIDBase + len(pushed))
			if rng.Intn(2) == 0 {
				id += retryIDHigh
			}
			var at int64
			switch rng.Intn(4) {
			case 0:
				at = t0 // due exactly at the epoch start: ties unclamped
			case 1:
				at = t1 + rng.Intn(EpochCycles) // not yet due
			default:
				at = t0 - 1 - rng.Intn(3*EpochCycles) // overdue: clamped
			}
			a := attempt{id: id, kind: kindRetry, arrival: at}
			cl.retryQ.push(a)
			pushed = append(pushed, a)
		}
		cl.nextAttID = retryIDBase + int64(len(pushed)) + 1_000

		// Some tenants catch up after an idle stretch; the rest are on
		// schedule.
		for i := range cl.next {
			if rng.Intn(2) == 0 {
				cl.next[i] = t0 - rng.Intn(3*EpochCycles)
			} else {
				cl.next[i] = t0 + rng.Intn(EpochCycles)
			}
		}
		caughtUp := 0
		for _, at := range cl.next {
			if at < t0 {
				caughtUp++
			}
		}

		got := f.epochBatch(t0)
		want := slices.Clone(f.due)
		slices.SortFunc(want, byArrivalID)
		if !slices.Equal(got, want) {
			t.Fatalf("seed %d: merged epoch differs from the (arrival, id) sort:\n got  %v\n want %v", seed, got, want)
		}
		lo := 0
		for k, end := range f.runEnds {
			if !slices.IsSortedFunc(f.due[lo:end], byArrivalID) {
				t.Fatalf("seed %d: run %d is not in (arrival, id) order: %v", seed, k, f.due[lo:end])
			}
			lo = end
		}

		clampedArrivals += caughtUp
		maxRuns = max(maxRuns, len(f.runEnds))
		for _, a := range got {
			if a.kind == kindHedge {
				hedges++
			}
		}
		// Pop order of the retries that end up tied at t0: scheduled
		// time, then id. Ids out of order there need the re-sort.
		var tied []attempt
		for _, a := range pushed {
			if a.arrival <= t0 {
				tied = append(tied, a)
			}
		}
		slices.SortFunc(tied, byArrivalID)
		if !slices.IsSortedFunc(tied, func(a, b attempt) int { return cmp.Compare(a.id, b.id) }) {
			tiedRetriesOutOfOrder++
		}
	}
	if clampedArrivals == 0 || tiedRetriesOutOfOrder == 0 || hedges == 0 || maxRuns < 4 {
		t.Fatalf("property inputs too tame: clamped arrivals %d, out-of-order tied retry runs %d, hedges %d, max runs %d",
			clampedArrivals, tiedRetriesOutOfOrder, hedges, maxRuns)
	}
}

// A P2C pick with zones and migration on must not allocate once the
// balancer's scratch buffers are warm: neither on the fast path (a
// Closed first choice in a surviving zone) nor on the full ranking
// walk, which the down zone 0 (backend 0 ejected, backend 4 its
// sibling) and the excluded replicas force.
func TestPickNoAllocs(t *testing.T) {
	cfg := Config{Replicas: 8, Tenants: 4, Zones: 4, Migrate: true, Policy: P2CDeadline, Seed: 3}.withDefaults()
	b := newBalancer(cfg)
	tripBreaker(t, b, 0)
	k := int64(0)
	pick := func() {
		k++
		a := attempt{exclude: int32(k%9) - 1, arrival: k, reqArrival: k}
		r, ok := b.pick(&a)
		if !ok || r == 0 {
			t.Fatalf("pick = %d, %v: want a routable backend other than ejected 0", r, ok)
		}
	}
	for i := 0; i < 100; i++ {
		pick()
	}
	if n := testing.AllocsPerRun(1000, pick); n != 0 {
		t.Errorf("balancer.pick allocated %.2f times per call, want 0", n)
	}
}

// Routing one attempt — tenant gate, P2C pick with zones and
// migration on, request bookkeeping, inbox hand-off — must not
// allocate in steady state. Each cycle injects one request, routes
// it, and settles it as served so its slab slot is recycled.
func TestRouteNoAllocs(t *testing.T) {
	cfg := Config{Replicas: 8, Tenants: 4, Zones: 4, Migrate: true, Policy: P2CDeadline, Seed: 3}.withDefaults()
	f := newFleetState(cfg)
	tripBreaker(t, f.lb, 0)
	now := int64(0)
	cycle := func() {
		now += 10_000
		a := f.cl.inject(int(now/10_000)%cfg.Tenants, now, 5_000)
		f.outstanding++
		f.route(&a)
		for _, r := range f.replicas {
			for i := range r.inbox {
				o := outcome{att: r.inbox[i], at: now + 1_000, status: stServed}
				f.lb.noteOutcome(&o, now)
				f.deliver(&o)
			}
			r.inbox = r.inbox[:0]
		}
		for i := range f.cl.perTenant {
			f.cl.perTenant[i].lats = f.cl.perTenant[i].lats[:0]
		}
	}
	for i := 0; i < 100; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(1000, cycle); n != 0 {
		t.Errorf("route allocated %.2f times per attempt, want 0", n)
	}
	if f.cl.served == 0 || f.cl.attRejected != 0 || f.outstanding != 0 {
		t.Fatalf("served %d, rejected %d, outstanding %d: the cycle missed the routed path",
			f.cl.served, f.cl.attRejected, f.outstanding)
	}
	if len(f.cl.reqs) > 1 {
		t.Fatalf("request slab grew to %d slots for one live request; freed slots are not reused", len(f.cl.reqs))
	}
}

// The slab's locality rests on a request filling exactly one 64-byte
// cache line; settle's first touch of a slot is the barrier's most
// frequent cache miss.
func TestRequestIsOneCacheLine(t *testing.T) {
	if n := unsafe.Sizeof(request{}); n != 64 {
		t.Errorf("request is %d bytes, want 64", n)
	}
}
