package fleet

import (
	"fmt"

	"repro/internal/overload"
	"repro/internal/sim"
)

// HealthIntervalCycles is the balancer's probe cadence: 130_000
// cycles = 50 µs, five epochs.
const HealthIntervalCycles = 130_000

// backend is the balancer's view of one replica: a health breaker
// (an overload.Controller used breaker-only) plus an outstanding
// counter for load estimates.
type backend struct {
	hc          *overload.Controller
	outstanding int64
	ejections   int64
	readmits    int64
}

// balancer routes attempts to replicas: per-tenant rate gates first
// (isolating a misbehaving tenant to its own share), then a policy
// pick over healthy backends. Health is judged from synthetic probes:
// a probe fails while the replica is down and carries the replica's
// queue-delay signal, so crashed replicas trip the breaker on
// failures and gray-slow replicas trip it on latency outliers. An
// ejected (Open) backend receives no traffic until the cooldown
// half-opens it; half-open backends re-admit a bounded number of real
// requests as probes before closing.
type balancer struct {
	cfg Config
	bk  []backend
	rng *sim.RNG // p2c sampling; consumed serially only

	tenants       []*overload.Controller
	tenantRejects []int64

	// Failure-domain bookkeeping: zoneOf labels each backend, zoneOpen
	// counts each zone's currently-ejected backends (maintained by the
	// breaker state-change hook), and a zone with at least half its
	// backends ejected is treated as suffering a correlated outage —
	// its survivors are deprioritized too.
	zoneOf   []int
	zoneSize []int
	zoneOpen []int

	// drainPending marks backends whose breaker opened since the last
	// migration barrier; the serial phase drains their queues.
	drainPending []bool

	// routable lists the non-Open backends in index order. It changes
	// only when a breaker enters or leaves Open, so the state-change
	// hook marks it stale and pick rebuilds it on next use.
	routable      []int
	routableStale bool

	// pick scratch, reused across calls so the serial phase does not
	// allocate.
	order, zHealthy, zFailing []int

	rrNext     int
	nextHealth int64

	probes, probeFailures     int64
	tenantRejected, unrouted  int64
	migrated, migrationFailed int64
}

func newBalancer(c Config) *balancer {
	b := &balancer{
		cfg:           c,
		rng:           sim.NewRNG(c.Seed ^ 0x6c62), // "lb"
		routableStale: true,
	}
	b.bk = make([]backend, c.Replicas)
	b.zoneOf = make([]int, c.Replicas)
	b.zoneSize = make([]int, c.Zones)
	b.zoneOpen = make([]int, c.Zones)
	b.drainPending = make([]bool, c.Replicas)
	for i := range b.bk {
		i := i
		b.zoneOf[i] = i % c.Zones
		b.zoneSize[b.zoneOf[i]]++
		b.bk[i].hc = overload.New(&overload.Config{
			Name:         fmt.Sprintf("fleet/lb%d", i),
			WindowCycles: 5 * HealthIntervalCycles,
			Breaker: overload.BreakerConfig{
				// 5 probes per window; a down replica fails them all,
				// a gray replica pushes the probe latency signal past
				// the deadline.
				ErrFracTrip:      0.4,
				MinSamples:       3,
				LatencyP99Cycles: c.DeadlineCycles,
				CooldownCycles:   2 * c.DeadlineCycles,
				HalfOpenProbes:   4,
			},
			OnStateChange: func(from, to overload.State, now int64) {
				if from == overload.Open || to == overload.Open {
					b.routableStale = true
				}
				if to == overload.Open {
					b.bk[i].ejections++
					b.zoneOpen[b.zoneOf[i]]++
					b.drainPending[i] = true
				}
				if from == overload.Open {
					b.zoneOpen[b.zoneOf[i]]--
				}
				if from == overload.HalfOpen && to == overload.Closed {
					b.bk[i].readmits++
				}
			},
		})
	}
	// Per-tenant rate gates: each tenant gets its fair share of the
	// cluster's analytic capacity plus 25% headroom, so well-behaved
	// tenants never hit their gate while a misbehaving tenant's excess
	// is shed at the door instead of inside the replicas.
	perCycle := float64(c.Replicas) / meanDemandCycles
	share := 1.25 * perCycle / float64(c.Tenants)
	b.tenants = make([]*overload.Controller, c.Tenants)
	b.tenantRejects = make([]int64, c.Tenants)
	for i := range b.tenants {
		b.tenants[i] = overload.New(&overload.Config{
			Name:         fmt.Sprintf("fleet/tenant%d", i),
			RatePerCycle: share,
			Burst:        256,
			Breaker:      overload.BreakerConfig{Disabled: true},
		})
	}
	return b
}

// tenantAdmit runs one attempt through its tenant's rate gate.
func (b *balancer) tenantAdmit(a *attempt) bool {
	v := b.tenants[a.tenant].Admit(a.arrival, overload.Request{Arrival: a.arrival})
	if !v.Admitted() {
		b.tenantRejects[a.tenant]++
		return false
	}
	return true
}

// healthTick probes every backend at the probe cadence: failure while
// the replica is down, latency from its queue-delay signal; the poll
// drives the breaker's cooldown and window rotation.
func (b *balancer) healthTick(f *fleetState, t int64) {
	if t < b.nextHealth {
		return
	}
	b.nextHealth = t + HealthIntervalCycles
	for i := range b.bk {
		down := f.replicas[i].isDown(t)
		lat := f.replicas[i].oldestSojourn(t)
		b.probes++
		if down {
			b.probeFailures++
		}
		b.bk[i].hc.Observe(t, lat, down)
		b.bk[i].hc.Poll(t, lat)
	}
}

// estDelay is the balancer-side queue estimate for one backend.
func (b *balancer) estDelay(i int) int64 {
	return int64(float64(b.bk[i].outstanding) * meanDemandCycles)
}

// takeDrain consumes backend i's pending-drain mark (set when its
// breaker opened), returning whether a migration drain is due.
func (b *balancer) takeDrain(i int) bool {
	d := b.drainPending[i]
	b.drainPending[i] = false
	return d
}

// zoneDown reports whether zone z looks like a correlated outage: at
// least half its backends are ejected. Its surviving backends are
// deprioritized too — in a real failure domain the survivors share
// the failing power/network and are the next to go.
func (b *balancer) zoneDown(z int) bool {
	return b.zoneOpen[z]*2 >= b.zoneSize[z]
}

// usable reports whether backend i may receive the attempt now:
// Closed always, HalfOpen only by consuming one of its bounded
// real-request probe slots, Open never.
func (b *balancer) usable(i int, now int64) bool {
	switch b.bk[i].hc.BreakerState() {
	case overload.Open:
		return false
	case overload.HalfOpen:
		return b.bk[i].hc.Admit(now, overload.Request{Arrival: now}).Admitted()
	}
	return true
}

// routableBackends returns the non-Open backends in index order.
func (b *balancer) routableBackends() []int {
	if b.routableStale {
		b.routable = b.routable[:0]
		for k := range b.bk {
			if b.bk[k].hc.BreakerState() != overload.Open {
				b.routable = append(b.routable, k)
			}
		}
		b.routableStale = false
	}
	return b.routable
}

// pick chooses a replica for one attempt under the configured policy.
// The policy ranks candidates; the first usable one (healthy, or
// half-open with a probe slot left) wins. Returns false when no
// backend can take the attempt.
func (b *balancer) pick(a *attempt) (int, bool) {
	n := len(b.bk)
	order := b.order[:0]
	switch b.cfg.Policy {
	case RoundRobin:
		for k := 0; k < n; k++ {
			order = append(order, (b.rrNext+k)%n)
		}
		b.rrNext = (b.rrNext + 1) % n
	case LeastLoaded:
		for k := 0; k < n; k++ {
			order = append(order, k)
		}
		// Selection sort by outstanding. It is not stable: the swap can
		// carry an earlier index past an equal one ([1,1,0] ranks as
		// 2,1,0), and that order is part of the model's output. It costs
		// O(n²) per pick.
		for i := 0; i < len(order); i++ {
			best := i
			for j := i + 1; j < len(order); j++ {
				if b.bk[order[j]].outstanding < b.bk[order[best]].outstanding {
					best = j
				}
			}
			order[i], order[best] = order[best], order[i]
		}
	case P2CDeadline:
		// Candidates are sampled over routable (non-Open) backends
		// only, and always with exactly two draws: the second draw
		// ranges over m-1 slots and is shifted past the first, so no
		// rejection loop and no draw is ever spent on an ejected
		// backend. Ejection windows therefore never shift the seeded
		// stream's alignment and cross-policy runs stay comparable.
		routable := b.routableBackends()
		if m := len(routable); m >= 2 {
			ii := int(b.rng.Intn(int64(m)))
			jj := int(b.rng.Intn(int64(m - 1)))
			if jj >= ii {
				jj++
			}
			i, j := routable[ii], routable[jj]
			remaining := a.reqArrival + b.cfg.DeadlineCycles - a.arrival
			di, dj := b.estDelay(i), b.estDelay(j)
			first, second := i, j
			if dj < di {
				first, second = j, i
				di, dj = dj, di
			}
			// Deadline awareness: if the lighter pick cannot fit the
			// remaining budget but the heavier one can (it is half-open
			// fresh, say), prefer the one that fits.
			if di > remaining && dj <= remaining {
				first, second = second, first
			}
			// The common case needs no ranking: a Closed first choice
			// outside any failing zone would lead the zone-partitioned
			// order and is usable without side effects. Only Closed may
			// skip the walk: usable() on a HalfOpen backend spends one of
			// its probe slots, so it must run exactly where the full walk
			// would run it.
			if first != int(a.exclude) && b.bk[first].hc.BreakerState() == overload.Closed &&
				(b.cfg.Zones <= 1 || !b.zoneDown(b.zoneOf[first])) {
				return first, true
			}
			order = append(order, first, second)
			for _, k := range routable {
				if k != i && k != j {
					order = append(order, k)
				}
			}
		} else if m == 1 {
			order = append(order, routable[0])
		}
	}
	if b.cfg.Zones > 1 {
		order = b.preferSurvivingZones(order)
	}
	b.order = order
	for _, i := range order {
		if i == int(a.exclude) && len(order) > 1 {
			continue
		}
		if b.usable(i, a.arrival) {
			return i, true
		}
	}
	return 0, false
}

// preferSurvivingZones stably partitions the policy's candidate order
// so backends in surviving zones come before backends in zones under
// correlated outage, preserving the policy's own ranking within each
// class. All three policies therefore steer around a zone outage
// while keeping their discipline intact.
func (b *balancer) preferSurvivingZones(order []int) []int {
	healthy := b.zHealthy[:0]
	failing := b.zFailing[:0]
	for _, i := range order {
		if b.zoneDown(b.zoneOf[i]) {
			failing = append(failing, i)
		} else {
			healthy = append(healthy, i)
		}
	}
	b.zHealthy, b.zFailing = healthy, failing
	if len(healthy) == 0 || len(failing) == 0 {
		return order
	}
	copy(order, healthy)
	copy(order[len(healthy):], failing)
	return order
}

// noteRouted records one attempt handed to backend i.
func (b *balancer) noteRouted(i int) { b.bk[i].outstanding++ }

// noteOutcome returns one attempt's slot and, while the backend is
// half-open, feeds the real outcome to the health breaker (the
// bounded re-admission probes).
func (b *balancer) noteOutcome(o *outcome, now int64) {
	i := o.att.replica
	b.bk[i].outstanding--
	if b.bk[i].hc.BreakerState() == overload.HalfOpen {
		b.bk[i].hc.Observe(now, o.at-o.att.arrival, o.status == stFailed)
	}
}

func (b *balancer) fill(res *Result) {
	res.Probes = b.probes
	res.ProbeFailures = b.probeFailures
	res.TenantRejected = b.tenantRejected
	res.LBUnrouted = b.unrouted
	res.Migrated = b.migrated
	res.MigrationFailed = b.migrationFailed
	for i := range b.bk {
		res.PerReplica[i].Ejections = b.bk[i].ejections
		res.PerReplica[i].Readmissions = b.bk[i].readmits
		res.Ejections += b.bk[i].ejections
		res.Readmissions += b.bk[i].readmits
	}
	for i, n := range b.tenantRejects {
		res.PerTenant[i].Rejected = n
	}
}
