package ciruntime

import (
	"testing"

	"repro/internal/sim"
)

// legacyConfig holds the hardwired AIMD parameters of the
// pre-QuantumPolicy runtime, with defaults already applied.
type legacyConfig struct {
	overrunFactor  float64
	maxBackoffMult int64
	tightenAfter   int64
}

// legacyAdaptive is a verbatim port of the pre-QuantumPolicy
// handlerState.adapt arithmetic. The trajectory table test below
// proves the AIMD policy, installed through SetPolicy, reproduces it
// bit for bit.
type legacyAdaptive struct {
	cfg          legacyConfig
	base, cur    int64
	onTimeStreak int64
}

func (l *legacyAdaptive) observe(gap int64) int64 {
	if float64(gap) > l.cfg.overrunFactor*float64(l.cur) {
		l.onTimeStreak = 0
		next := l.cur * 2
		if cap := l.base * l.cfg.maxBackoffMult; next > cap {
			next = cap
		}
		l.cur = next
		return l.cur
	}
	l.onTimeStreak++
	if l.onTimeStreak >= l.cfg.tightenAfter && l.cur > l.base {
		l.onTimeStreak = 0
		next := l.cur - l.base/8
		if next < l.base {
			next = l.base
		}
		l.cur = next
	}
	return l.cur
}

// Seeded gap corpus: a mix of on-time fires, mild lateness and hard
// overruns, scaled to the interval in force so both backoff and
// re-tightening paths are exercised.
func fuzzGaps(seed uint64, cur func() int64) func() int64 {
	rng := sim.NewRNG(seed)
	return func() int64 {
		c := cur()
		switch rng.Intn(4) {
		case 0:
			return c + rng.Intn(c/4+1) // on time
		case 1:
			return 2*c + rng.Intn(c+1) // borderline
		case 2:
			return 5 * c // hard overrun
		}
		return c/2 + rng.Intn(c+1) // early
	}
}

// Interval trajectories under an AIMD policy installed with SetPolicy
// must be bit-identical to the pre-policy implementation over the
// seeded fuzz corpus, for default and custom configurations.
func TestAIMDTrajectoryMatchesLegacyAdaptive(t *testing.T) {
	configs := []struct {
		policy AIMD
		legacy legacyConfig
	}{
		{AIMD{}, legacyConfig{2, 8, 4}}, // documented defaults
		{AIMD{OverrunFactor: 1.5, MaxBackoffMult: 4, TightenAfter: 2}, legacyConfig{1.5, 4, 2}},
		{AIMD{OverrunFactor: 3}, legacyConfig{3, 8, 4}},
		{AIMD{MaxBackoffMult: 2, TightenAfter: 1}, legacyConfig{2, 2, 1}},
	}
	const base = 1000
	for ci, cfg := range configs {
		for seed := uint64(1); seed <= 8; seed++ {
			legacy := &legacyAdaptive{cfg: cfg.legacy, base: base, cur: base}

			rt := New()
			id := rt.RegisterCI(base, func(uint64) {})
			policy := cfg.policy
			rt.SetPolicy(id, &policy)
			now := int64(0)
			rt.ProbeIR(1<<30, now) // first fire: no meaningful gap

			next := fuzzGaps(seed, func() int64 { return rt.CurrentInterval(id) })
			for step := 0; step < 400; step++ {
				gap := next()
				now += gap
				rt.ProbeIR(1<<30, now)
				want := legacy.observe(gap)
				if got := rt.CurrentInterval(id); got != want {
					t.Fatalf("cfg %d seed %d step %d: interval %d, legacy %d (gap %d)",
						ci, seed, step, got, want, gap)
				}
			}
		}
	}
}

// Fixed is the identity policy: whatever the gaps, the interval stays
// put and nothing is classified as an overrun.
func TestFixedPolicyNeverMoves(t *testing.T) {
	rt := New()
	id := rt.RegisterCI(1000, func(uint64) {})
	rt.SetPolicy(id, Fixed{})
	now := int64(0)
	for i := 0; i < 20; i++ {
		now += 50_000
		rt.ProbeIR(1<<30, now)
	}
	if got := rt.CurrentInterval(id); got != 1000 {
		t.Errorf("Fixed policy moved the interval to %d", got)
	}
	if rt.Overruns(id) != 0 {
		t.Errorf("Fixed policy classified %d overruns", rt.Overruns(id))
	}
}

// The feedback controller must converge below base under systematic
// lateness (every gap overshoots the target by a constant handler
// cost), and must respect its floor.
func TestFeedbackPIDConvergesBelowBase(t *testing.T) {
	const base = 5000
	p := &FeedbackPID{}
	p.Reset(base)
	cur := int64(base)
	for i := 0; i < 20*32; i++ {
		gap := cur + 3000 // constant lateness
		next, _ := p.Observe(gap, cur)
		cur = next
	}
	if cur >= base {
		t.Errorf("interval %d did not converge below base %d under constant lateness", cur, base)
	}
	if floor := int64(0.25 * base); cur < floor {
		t.Errorf("interval %d fell through the MinFrac floor %d", cur, floor)
	}
}

// Two identical Observe sequences must produce identical trajectories
// — the determinism contract the experiment engine depends on.
func TestFeedbackPIDDeterministic(t *testing.T) {
	run := func() []int64 {
		p := &FeedbackPID{ClassOf: nil}
		p.Reset(5000)
		rng := sim.NewRNG(7)
		cur := int64(5000)
		var out []int64
		for i := 0; i < 500; i++ {
			gap := cur + rng.Intn(20000)
			next, _ := p.Observe(gap, cur)
			cur = next
			out = append(out, cur)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("step %d: %d vs %d — FeedbackPID is not deterministic", i, a[i], b[i])
		}
	}
}

// The worst class's tail must drive the setpoint: a cheap majority
// class must not mask one expensive class.
func TestFeedbackPIDWorstClassDrives(t *testing.T) {
	const base = 5000
	trial := func(heavyLate int64) int64 {
		class := 0
		p := &FeedbackPID{ClassOf: func() int { return class }}
		p.Reset(base)
		cur := int64(base)
		for i := 0; i < 10*32; i++ {
			var gap int64
			if i%8 == 0 {
				class = 1
				gap = cur + heavyLate
			} else {
				class = 0
				gap = cur + 100
			}
			next, _ := p.Observe(gap, cur)
			cur = next
		}
		return cur
	}
	mild, heavy := trial(200), trial(20000)
	if heavy >= mild {
		t.Errorf("heavy-class interval %d not tighter than mild-class %d — worst class is not driving", heavy, mild)
	}
}

// ResetQuantum under an installed policy must snap the interval back
// to the registered base and rebase the policy, whatever regime the
// controller had learned.
func TestResetQuantumSnapsPolicyToBase(t *testing.T) {
	for _, mk := range []func() QuantumPolicy{
		func() QuantumPolicy { return &AIMD{} },
		func() QuantumPolicy { return &FeedbackPID{} },
	} {
		rt := New()
		id := rt.RegisterCI(1000, func(uint64) {})
		rt.SetPolicy(id, mk())
		now := int64(0)
		rt.ProbeIR(1<<30, now)
		for i := 0; i < 40*32; i++ {
			now += 5 * rt.CurrentInterval(id)
			rt.ProbeIR(1<<30, now)
		}
		if rt.CurrentInterval(id) == 1000 {
			t.Fatalf("%T: interval never moved; the reset below would prove nothing", rt.Policy(id))
		}
		rt.ResetQuantum(id)
		if got := rt.CurrentInterval(id); got != 1000 {
			t.Errorf("%T: interval %d after ResetQuantum, want base 1000", rt.Policy(id), got)
		}
		// The policy must be rebased too: an on-time fire right after
		// the reset must not re-apply the learned backoff.
		now += 1000
		rt.ProbeIR(1<<30, now)
		now += 1000
		rt.ProbeIR(1<<30, now)
		if got := rt.CurrentInterval(id); got > 2000 {
			t.Errorf("%T: interval %d right after reset — policy kept stale state", rt.Policy(id), got)
		}
	}
}

// SetPolicy(nil) removes adaptation but leaves the current interval in
// force.
func TestSetPolicyNilStopsAdaptation(t *testing.T) {
	rt := New()
	id := rt.RegisterCI(1000, func(uint64) {})
	rt.SetPolicy(id, &AIMD{})
	now := int64(0)
	rt.ProbeIR(1<<30, now)
	for i := 0; i < 3; i++ {
		now += 5 * rt.CurrentInterval(id)
		rt.ProbeIR(1<<30, now)
	}
	backed := rt.CurrentInterval(id)
	if backed == 1000 {
		t.Fatal("interval never backed off")
	}
	rt.SetPolicy(id, nil)
	for i := 0; i < 5; i++ {
		now += 10 * backed
		rt.ProbeIR(1<<30, now)
	}
	if got := rt.CurrentInterval(id); got != backed {
		t.Errorf("interval moved to %d after SetPolicy(nil), want frozen at %d", got, backed)
	}
}
