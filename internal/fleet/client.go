package fleet

import (
	"cmp"
	"math"
	"slices"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Bounded-Pareto service demand (cycles): xm=2500 (one polling
// interval of work), H=250_000, alpha=1.5 — heavy-tailed with
// analytic mean ~6756 cycles (meanDemandCycles).
const (
	paretoXm    = 2500.0
	paretoH     = 250_000.0
	paretoAlpha = 1.5
)

// paretoRatio is (xm/H)^alpha, the bounded Pareto's truncation term.
var paretoRatio = math.Pow(paretoXm/paretoH, paretoAlpha)

func paretoDemand(rng *sim.RNG) int64 {
	u := rng.Float64()
	x := paretoXm / math.Pow(1-u*(1-paretoRatio), 1/paretoAlpha)
	return int64(x)
}

// retryBackoffBase is the first-retry backoff (~50 µs), doubling per
// retry with a small deterministic jitter.
const retryBackoffBase = 130_000

// maxOut bounds a request's attempts in flight. A request has at most
// two live attempts at once, its first send and its single hedge: a
// retry is scheduled only when a failed attempt settles, so it takes
// that attempt's place.
const maxOut = 2

// request is one client request's settlement state, held by value in
// the clients' slab and packed into one 64-byte cache line. id is 0
// while the slot is free, so a stale slot reference (a hedge entry
// outliving its request) never matches.
type request struct {
	id      int64
	arrival int64
	demand  int64
	// outID/outReplica list the attempts sent and not yet settled,
	// oldest first; outReplica is -1 until the attempt is routed.
	outID      [maxOut]int64
	outReplica [maxOut]int32
	tenant     int32
	retries    int32
	live       int8 // attempts in flight or scheduled
	nOut       int8
	hedged     bool
	done       bool
}

// addOut registers a sent attempt, not yet routed.
func (rq *request) addOut(attID int64) {
	if rq.nOut == maxOut {
		panic("fleet: request has more than two attempts in flight")
	}
	rq.outID[rq.nOut] = attID
	rq.outReplica[rq.nOut] = -1
	rq.nOut++
}

// removeOut forgets a settled attempt, keeping the others in order.
func (rq *request) removeOut(attID int64) {
	for i := int8(0); i < rq.nOut; i++ {
		if rq.outID[i] == attID {
			copy(rq.outID[i:rq.nOut], rq.outID[i+1:rq.nOut])
			copy(rq.outReplica[i:rq.nOut], rq.outReplica[i+1:rq.nOut])
			rq.nOut--
			return
		}
	}
}

// hedgeEntry tracks a first attempt awaiting its hedge trigger.
type hedgeEntry struct {
	sendTime int64
	reqID    int64
	slot     int32
}

type cancelMsg struct {
	replica int32
	attID   int64
}

type tenantAcc struct {
	injected, served, servedLate, failed int64
	lats                                 []int64
	misbehaving                          bool
}

// clients is the open-loop multi-tenant population: per-tenant
// Poisson arrivals with bounded-Pareto demands, retry policies under
// a cluster retry budget, and hedging under a hedge budget. All state
// is serial-phase-owned.
type clients struct {
	cfg  Config
	rngs []*sim.RNG
	next []int64   // next arrival time per tenant
	mean []float64 // mean inter-arrival per tenant (cycles)

	nextReqID, nextAttID int64
	reqs                 []request // slab indexed by attempt.slot
	freeSlots            []int32
	retryQ               retryHeap
	hedgeQ               fifo[hedgeEntry]
	cancels              []cancelMsg

	retryBudget, hedgeBudget float64

	perTenant []tenantAcc

	injected, served, servedLate, failedPerm      int64
	attempts, retries, hedges                     int64
	attServed, attRejected, attExpired, attFailed int64
	attCancelled                                  int64
	hedgeDup, hedgeWins, retryDenied, hedgeDenied int64
}

// budgetCap bounds accumulated unused budget so bursts stay bounded;
// total withdrawals can never exceed total deposits regardless.
const budgetCap = 1000

func newClients(c Config) *clients {
	cl := &clients{
		cfg:       c,
		perTenant: make([]tenantAcc, c.Tenants),
	}
	// Fair share: LoadFactor × cluster capacity, split evenly; the
	// misbehaving tenant offers MisbehaveFactor times its share.
	totalPerCycle := c.LoadFactor * float64(c.Replicas) / meanDemandCycles
	share := totalPerCycle / float64(c.Tenants)
	for i := 0; i < c.Tenants; i++ {
		rate := share
		if i == c.MisbehavingTenant {
			rate *= c.MisbehaveFactor
			cl.perTenant[i].misbehaving = true
		}
		cl.rngs = append(cl.rngs, sim.NewRNG(c.Seed^uint64(0x74656e616e74)^uint64(i)<<32))
		cl.mean = append(cl.mean, 1/rate)
		cl.next = append(cl.next, cl.rngs[i].Exp(1/rate))
	}
	return cl
}

// inject registers one fresh request of the tenant arriving at at and
// returns its first attempt. The request takes a free slab slot, or
// grows the slab when none is free.
func (cl *clients) inject(tenant int, at, demand int64) attempt {
	cl.nextReqID++
	cl.nextAttID++
	var slot int32
	if n := len(cl.freeSlots); n > 0 {
		slot = cl.freeSlots[n-1]
		cl.freeSlots = cl.freeSlots[:n-1]
	} else {
		slot = int32(len(cl.reqs))
		cl.reqs = append(cl.reqs, request{})
	}
	cl.reqs[slot] = request{id: cl.nextReqID, arrival: at, tenant: int32(tenant), demand: demand}
	return attempt{
		id: cl.nextAttID, reqID: cl.nextReqID, slot: slot, tenant: int32(tenant),
		kind: kindFirst, exclude: -1, arrival: at, reqArrival: at, demand: demand,
	}
}

// release frees a finished request's slab slot.
func (cl *clients) release(slot int32) {
	cl.reqs[slot] = request{}
	cl.freeSlots = append(cl.freeSlots, slot)
}

// arrivals appends every fresh request arriving in [t0, t1) to dst,
// one run per tenant, and appends each run's end offset to ends. A
// tenant's arrival times never decrease and its ids increase, so each
// run is already in (arrival, id) order for the epoch merge.
func (cl *clients) arrivals(t0, t1 int64, dst []attempt, ends []int) ([]attempt, []int) {
	for i := 0; i < cl.cfg.Tenants; i++ {
		for cl.next[i] < t1 {
			at := cl.next[i]
			cl.next[i] = at + cl.rngs[i].Exp(cl.mean[i])
			if at < t0 {
				at = t0 // catch-up after a long idle stretch
			}
			dst = append(dst, cl.inject(i, at, paretoDemand(cl.rngs[i])))
		}
		ends = append(ends, len(dst))
	}
	return dst, ends
}

// dueRetries appends every scheduled retry due before t1 to dst as one
// run in (arrival, id) order, clamping send times into the current
// epoch. The heap pops in scheduled-time order; the clamp gives every
// overdue retry the epoch start as its arrival, so that tied prefix is
// re-sorted by id.
func (cl *clients) dueRetries(t1 int64, dst []attempt) []attempt {
	t0 := t1 - EpochCycles
	start := len(dst)
	for len(cl.retryQ) > 0 && cl.retryQ[0].arrival < t1 {
		a := cl.retryQ.pop()
		if a.arrival < t0 {
			a.arrival = t0
		}
		dst = append(dst, a)
	}
	tied := start
	for tied < len(dst) && dst[tied].arrival == t0 {
		tied++
	}
	if tied-start > 1 {
		slices.SortFunc(dst[start:tied], func(a, b attempt) int { return cmp.Compare(a.id, b.id) })
	}
	return dst
}

// dueHedges walks the hedge FIFO at time t: any first attempt
// outstanding longer than the hedge delay gets one hedge to a
// different replica, budget permitting. Hedges are appended to dst
// with arrival t and increasing ids, so they form one ordered run.
func (cl *clients) dueHedges(t, delay int64, dst []attempt) []attempt {
	if delay <= 0 {
		return dst
	}
	for cl.hedgeQ.len() > 0 && cl.hedgeQ.front().sendTime+delay <= t {
		e := cl.hedgeQ.pop()
		rq := &cl.reqs[e.slot]
		if rq.id != e.reqID || rq.done || rq.hedged || rq.nOut == 0 {
			continue
		}
		if cl.hedgeBudget < 1 {
			cl.hedgeDenied++
			continue
		}
		cl.hedgeBudget--
		rq.hedged = true
		cl.nextAttID++
		dst = append(dst, attempt{
			id: cl.nextAttID, reqID: e.reqID, slot: e.slot, tenant: rq.tenant,
			kind: kindHedge, exclude: rq.outReplica[0],
			arrival: t, reqArrival: rq.arrival, demand: rq.demand,
		})
	}
	return dst
}

// noteAttempt counts one attempt entering the system and registers it
// with its request.
func (cl *clients) noteAttempt(a *attempt) {
	cl.attempts++
	rq := &cl.reqs[a.slot]
	if a.kind != kindRetry {
		rq.live++ // retries were counted live when scheduled
	}
	rq.addOut(a.id)
	switch a.kind {
	case kindFirst:
		cl.injected++
		cl.perTenant[a.tenant].injected++
		cl.retryBudget = math.Min(cl.retryBudget+cl.cfg.RetryBudgetFrac, budgetCap)
		cl.hedgeBudget = math.Min(cl.hedgeBudget+cl.cfg.HedgeBudgetFrac, budgetCap)
		if cl.cfg.HedgeDelayCycles > 0 {
			cl.hedgeQ.push(hedgeEntry{sendTime: a.arrival, reqID: a.reqID, slot: a.slot})
		}
	case kindRetry:
		cl.retries++
	case kindHedge:
		cl.hedges++
	}
}

// bindReplica records where an attempt was routed (for hedge
// cancellation).
func (cl *clients) bindReplica(a *attempt, replica int) {
	rq := &cl.reqs[a.slot]
	for i, id := range rq.outID[:rq.nOut] {
		if id == a.id {
			rq.outReplica[i] = int32(replica)
			return
		}
	}
}

// settle applies one terminal attempt outcome. It returns whether the
// request itself just completed, and the request latency in cycles
// (-1 for a permanent failure).
func (cl *clients) settle(o *outcome) (doneNow bool, lat int64) {
	rq := &cl.reqs[o.att.slot]
	rq.live--
	rq.removeOut(o.att.id)
	lat = -1
	switch o.status {
	case stServed:
		cl.attServed++
		if rq.done {
			cl.hedgeDup++
		} else {
			rq.done = true
			doneNow = true
			lat = o.at - rq.arrival
			acc := &cl.perTenant[rq.tenant]
			acc.lats = append(acc.lats, lat)
			if lat <= cl.cfg.DeadlineCycles {
				cl.served++
				acc.served++
			} else {
				cl.servedLate++
				acc.servedLate++
			}
			if o.att.kind == kindHedge {
				cl.hedgeWins++
			}
			// First-wins cancellation of the twin attempt.
			for i, id := range rq.outID[:rq.nOut] {
				if r := rq.outReplica[i]; r >= 0 {
					cl.cancels = append(cl.cancels, cancelMsg{replica: r, attID: id})
				}
			}
		}
	case stCancelled:
		cl.attCancelled++
	case stRejected, stExpired, stFailed:
		switch o.status {
		case stRejected:
			cl.attRejected++
		case stExpired:
			cl.attExpired++
		case stFailed:
			cl.attFailed++
		}
		if !rq.done {
			cl.maybeRetry(rq, o)
			if rq.live == 0 {
				rq.done = true
				doneNow = true
				cl.failedPerm++
				cl.perTenant[rq.tenant].failed++
			}
		}
	}
	if rq.done && rq.live == 0 {
		cl.release(o.att.slot)
	}
	return doneNow, lat
}

// maybeRetry schedules one retry for a failed attempt when the
// per-request limit and the cluster retry budget allow it. The
// misbehaving tenant retries without backoff; everyone else backs off
// exponentially with deterministic jitter.
func (cl *clients) maybeRetry(rq *request, o *outcome) {
	if int(rq.retries) >= cl.cfg.MaxRetries || cl.cfg.RetryBudgetFrac <= 0 {
		return
	}
	if cl.retryBudget < 1 {
		cl.retryDenied++
		return
	}
	cl.retryBudget--
	backoff := int64(0)
	if !cl.perTenant[rq.tenant].misbehaving {
		backoff = retryBackoffBase << uint(rq.retries)
		backoff += cl.rngs[rq.tenant].Intn(backoff / 2)
	}
	rq.retries++
	rq.live++ // stays live while the retry waits in the heap
	cl.nextAttID++
	cl.retryQ.push(attempt{
		id: cl.nextAttID, reqID: o.att.reqID, slot: o.att.slot, tenant: rq.tenant,
		kind: kindRetry, exclude: o.att.replica,
		arrival: o.at + backoff, reqArrival: rq.arrival, demand: rq.demand,
	})
}

// takeCancel removes a pending cancellation for the attempt, if one
// is queued, and reports whether it was found. The migration drain
// consults it so an attempt whose hedge twin already completed is
// cancelled at the source instead of re-routed — migration can never
// double-serve a request.
func (cl *clients) takeCancel(attID int64) bool {
	for i := range cl.cancels {
		if cl.cancels[i].attID == attID {
			cl.cancels = append(cl.cancels[:i], cl.cancels[i+1:]...)
			return true
		}
	}
	return false
}

// flushCancels delivers queued hedge cancellations into replica
// cancel boxes for the next step.
func (cl *clients) flushCancels(replicas []*replica) {
	for _, c := range cl.cancels {
		replicas[c.replica].cancels = append(replicas[c.replica].cancels, c.attID)
	}
	cl.cancels = cl.cancels[:0]
}

func (cl *clients) fill(res *Result) {
	res.Injected = cl.injected
	res.Served = cl.served
	res.ServedLate = cl.servedLate
	res.FailedPerm = cl.failedPerm
	res.Attempts = cl.attempts
	res.Retries = cl.retries
	res.Hedges = cl.hedges
	res.AttemptServed = cl.attServed
	res.AttemptRejected = cl.attRejected
	res.AttemptExpired = cl.attExpired
	res.AttemptFailed = cl.attFailed
	res.AttemptCancelled = cl.attCancelled
	res.HedgeDuplicates = cl.hedgeDup
	res.HedgeWins = cl.hedgeWins
	res.RetryDenied = cl.retryDenied
	res.HedgeDenied = cl.hedgeDenied
	// Each tenant's latencies are sorted once, in place; the cluster
	// tails are order statistics over those sorted runs, so no merged
	// copy of every latency is ever built.
	runs := make([][]int64, 0, len(cl.perTenant))
	for i := range cl.perTenant {
		acc := &cl.perTenant[i]
		ts := TenantStats{
			Injected: acc.injected, Served: acc.served,
			ServedLate: acc.servedLate, Failed: acc.failed,
			Misbehaving: acc.misbehaving,
		}
		if len(acc.lats) > 0 {
			slices.Sort(acc.lats)
			ts.P99Us = float64(stats.PercentileSorted(acc.lats, 99)) / CyclesPerUs
			ts.P999Us = float64(stats.PercentileSorted(acc.lats, 99.9)) / CyclesPerUs
			runs = append(runs, acc.lats)
		}
		res.PerTenant = append(res.PerTenant, ts)
	}
	if len(runs) > 0 {
		res.P50Us = float64(stats.PercentileRuns(runs, 50)) / CyclesPerUs
		res.P99Us = float64(stats.PercentileRuns(runs, 99)) / CyclesPerUs
		res.P999Us = float64(stats.PercentileRuns(runs, 99.9)) / CyclesPerUs
		res.MaxUs = float64(stats.PercentileRuns(runs, 100)) / CyclesPerUs
	}
}
