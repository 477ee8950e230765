package fleet

import (
	"container/heap"
	"math"

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

func paretoDemand(rng *sim.RNG) int64 {
	u := rng.Float64()
	ratio := math.Pow(paretoXm/paretoH, paretoAlpha)
	x := paretoXm / math.Pow(1-u*(1-ratio), 1/paretoAlpha)
	return int64(x)
}

// retryBackoffBase is the first-retry backoff (~50 µs), doubling per
// retry with a small deterministic jitter.
const retryBackoffBase = 130_000

// outAtt is one in-flight attempt of a request.
type outAtt struct {
	id      int64
	replica int
}

// request is one client request's settlement state.
type request struct {
	arrival int64
	tenant  int32
	demand  int64
	retries int
	hedged  bool
	done    bool
	live    int // attempts in flight or scheduled
	out     []outAtt
}

// scheduled is a future retry in the retry heap.
type scheduled struct {
	at  int64
	att attempt
}

type retryHeap []scheduled

func (h retryHeap) Len() int { return len(h) }
func (h retryHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].att.id < h[j].att.id
}
func (h retryHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *retryHeap) Push(x interface{}) { *h = append(*h, x.(scheduled)) }
func (h *retryHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// hedgeEntry tracks a first attempt awaiting its hedge trigger.
type hedgeEntry struct {
	sendTime int64
	reqID    int64
}

type cancelMsg struct {
	replica int
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
	reqs                 map[int64]*request
	retryQ               retryHeap
	hedgeQ               []hedgeEntry
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
		reqs:      make(map[int64]*request),
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

// arrivals generates every fresh request arriving in [t0, t1), grouped
// by tenant; serialPhase sorts them with the epoch's retries and hedges.
func (cl *clients) arrivals(t0, t1 int64) []attempt {
	var out []attempt
	for i := 0; i < cl.cfg.Tenants; i++ {
		for cl.next[i] < t1 {
			at := cl.next[i]
			cl.next[i] = at + cl.rngs[i].Exp(cl.mean[i])
			if at < t0 {
				at = t0 // catch-up after a long idle stretch
			}
			cl.nextReqID++
			cl.nextAttID++
			d := paretoDemand(cl.rngs[i])
			cl.reqs[cl.nextReqID] = &request{arrival: at, tenant: int32(i), demand: d}
			out = append(out, attempt{
				id: cl.nextAttID, reqID: cl.nextReqID, tenant: int32(i),
				kind: kindFirst, exclude: -1, arrival: at, reqArrival: at, demand: d,
			})
		}
	}
	return out
}

// dueRetries pops every scheduled retry due before t1, clamping send
// times into the current epoch.
func (cl *clients) dueRetries(t1 int64) []attempt {
	var out []attempt
	for len(cl.retryQ) > 0 && cl.retryQ[0].at < t1 {
		s := heap.Pop(&cl.retryQ).(scheduled)
		a := s.att
		if a.arrival < t1-EpochCycles {
			a.arrival = t1 - EpochCycles
		}
		out = append(out, a)
	}
	return out
}

// dueHedges walks the hedge FIFO at time t: any first attempt
// outstanding longer than the hedge delay gets one hedge to a
// different replica, budget permitting.
func (cl *clients) dueHedges(t, delay int64) []attempt {
	if delay <= 0 {
		return nil
	}
	var out []attempt
	for len(cl.hedgeQ) > 0 && cl.hedgeQ[0].sendTime+delay <= t {
		e := cl.hedgeQ[0]
		cl.hedgeQ = cl.hedgeQ[1:]
		rq, ok := cl.reqs[e.reqID]
		if !ok || rq.done || rq.hedged || len(rq.out) == 0 {
			continue
		}
		if cl.hedgeBudget < 1 {
			cl.hedgeDenied++
			continue
		}
		cl.hedgeBudget--
		rq.hedged = true
		cl.nextAttID++
		out = append(out, attempt{
			id: cl.nextAttID, reqID: e.reqID, tenant: rq.tenant,
			kind: kindHedge, exclude: rq.out[0].replica,
			arrival: t, reqArrival: rq.arrival, demand: rq.demand,
		})
	}
	return out
}

// noteAttempt counts one attempt entering the system and registers it
// with its request.
func (cl *clients) noteAttempt(a *attempt) {
	cl.attempts++
	rq := cl.reqs[a.reqID]
	if a.kind != kindRetry {
		rq.live++ // retries were counted live when scheduled
	}
	rq.out = append(rq.out, outAtt{id: a.id, replica: -1})
	switch a.kind {
	case kindFirst:
		cl.injected++
		cl.perTenant[a.tenant].injected++
		cl.retryBudget = math.Min(cl.retryBudget+cl.cfg.RetryBudgetFrac, budgetCap)
		cl.hedgeBudget = math.Min(cl.hedgeBudget+cl.cfg.HedgeBudgetFrac, budgetCap)
		if cl.cfg.HedgeDelayCycles > 0 {
			cl.hedgeQ = append(cl.hedgeQ, hedgeEntry{sendTime: a.arrival, reqID: a.reqID})
		}
	case kindRetry:
		cl.retries++
	case kindHedge:
		cl.hedges++
	}
}

// bindReplica records where an attempt was routed (for hedge
// cancellation).
func (cl *clients) bindReplica(reqID, attID int64, replica int) {
	rq := cl.reqs[reqID]
	for i := range rq.out {
		if rq.out[i].id == attID {
			rq.out[i].replica = replica
			return
		}
	}
}

// settle applies one terminal attempt outcome. It returns whether the
// request itself just completed, and the request latency in cycles
// (-1 for a permanent failure).
func (cl *clients) settle(o outcome) (doneNow bool, lat int64) {
	rq := cl.reqs[o.att.reqID]
	rq.live--
	for i := range rq.out {
		if rq.out[i].id == o.att.id {
			rq.out = append(rq.out[:i], rq.out[i+1:]...)
			break
		}
	}
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
			for _, other := range rq.out {
				if other.replica >= 0 {
					cl.cancels = append(cl.cancels, cancelMsg{replica: other.replica, attID: other.id})
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
			cl.maybeRetry(rq, &o)
			if rq.live == 0 {
				rq.done = true
				doneNow = true
				cl.failedPerm++
				cl.perTenant[rq.tenant].failed++
			}
		}
	}
	if rq.done && rq.live == 0 {
		delete(cl.reqs, o.att.reqID)
	}
	return doneNow, lat
}

// maybeRetry schedules one retry for a failed attempt when the
// per-request limit and the cluster retry budget allow it. The
// misbehaving tenant retries without backoff; everyone else backs off
// exponentially with deterministic jitter.
func (cl *clients) maybeRetry(rq *request, o *outcome) {
	if rq.retries >= cl.cfg.MaxRetries || cl.cfg.RetryBudgetFrac <= 0 {
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
	a := attempt{
		id: cl.nextAttID, reqID: o.att.reqID, tenant: rq.tenant,
		kind: kindRetry, exclude: o.att.replica,
		arrival: o.at + backoff, reqArrival: rq.arrival, demand: rq.demand,
	}
	heap.Push(&cl.retryQ, scheduled{at: a.arrival, att: a})
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
	for i := range cl.perTenant {
		acc := &cl.perTenant[i]
		ts := TenantStats{
			Injected: acc.injected, Served: acc.served,
			ServedLate: acc.servedLate, Failed: acc.failed,
			Misbehaving: acc.misbehaving,
		}
		if len(acc.lats) > 0 {
			ts.P99Us = float64(stats.Percentile(acc.lats, 99)) / CyclesPerUs
			ts.P999Us = float64(stats.Percentile(acc.lats, 99.9)) / CyclesPerUs
		}
		res.PerTenant = append(res.PerTenant, ts)
	}
}
