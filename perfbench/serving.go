package main

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/fleet"
)

const (
	// fleetScale multiplies the scale soak's 26M-cycle horizon.
	fleetScale = 1
	// rampCycles is the length of one Shenango ramp cell.
	rampCycles = 130_000_000
	// modelHz converts model cycles to seconds (2.6 GHz).
	modelHz = 2.6e9
	// poolWorkers is the fleet pool size: the host's 2 cores.
	poolWorkers = 2
)

// servingBench runs the 64-replica fleet scale soak serially and on a
// 2-worker pool, then the Shenango overload ramp, with no compile or
// VM work. The seed is the fleet's and the ramp's input seed.
type servingBench struct {
	size       size
	seed       uint64
	cfg        fleet.Config
	rampCycles int64
	pool       *engine.Pool
	ramp       *engine.Engine
}

func (b *servingBench) setup(seed uint64) error {
	b.seed = seed
	b.cfg = experiments.FleetScaleConfig(seed, fleetScale)
	b.rampCycles = rampCycles
	if b.size == smoke {
		b.cfg.HorizonCycles /= 8
		b.rampCycles /= 8
	}
	b.pool = engine.NewPool(poolWorkers)
	b.ramp = engine.Serial()
	// Warm up on a short soak and one short ramp cell pair.
	warm := b.cfg
	warm.HorizonCycles /= 16
	if err := fleet.Run(warm, nil).Conservation(); err != nil {
		return err
	}
	if _, errs := experiments.MeasureLoadRamp(b.ramp, seed, b.rampCycles/16, []float64{1.0}, nil); len(errs) > 0 {
		return fmt.Errorf("ramp warm-up: %v", errs[0])
	}
	return nil
}

// check has nothing to add: the serving oracles are cheap, so every
// pass runs them on its own outputs.
func (b *servingBench) check(r *runner) {}

func (b *servingBench) pass(r *runner, p *pass) {
	h := newModelHash()
	var serial, pooled *fleet.Result
	r.op(p, "fleet/serial", "fleet", "fleet.Run workers=1", "fleet_serial_self_ms", r.tr.newID(), func() error {
		serial = fleet.Run(b.cfg, nil)
		return serial.Conservation()
	})
	r.op(p, "fleet/pool", "fleet", fmt.Sprintf("fleet.Run workers=%d", poolWorkers), "fleet_pool_self_ms", r.tr.newID(), func() error {
		pooled = fleet.Run(b.cfg, b.pool)
		return pooled.Conservation()
	})
	if serial.Fingerprint() != pooled.Fingerprint() {
		r.fail(fmt.Errorf("fleet: serial fingerprint %016x != pool fingerprint %016x", serial.Fingerprint(), pooled.Fingerprint()))
	}
	h.add("fleet %016x", serial.Fingerprint())
	p.n["fleet_injected"] = float64(serial.Injected)
	p.n["fleet_attempts"] = float64(serial.Attempts)
	p.n["fleet_retries"] = float64(serial.Retries)
	p.n["fleet_hedges"] = float64(serial.Hedges)
	p.n["fleet_migrated"] = float64(serial.Migrated)
	p.n["fleet_ejections"] = float64(serial.Ejections)
	p.n["fleet_goodput_frac"] = serial.GoodputRPS / fleet.CapacityRPS(b.cfg.Replicas)
	p.n["overload_fleet_served_frac"] = float64(serial.AttemptServed) / float64(serial.Attempts)
	for _, rs := range serial.PerReplica {
		p.n["overload_fleet_admitted"] += float64(rs.Admitted)
		p.n["overload_fleet_rejected"] += float64(rs.Rejected)
	}
	p.items = float64(serial.Injected + pooled.Injected)

	var completed, offered int64
	for _, mult := range experiments.RampMults {
		key := fmt.Sprintf("ramp/%.1fx", mult)
		r.op(p, key, "shenango", fmt.Sprintf("ramp %.1fx", mult), "shenango_self_ms", r.tr.newID(), func() error {
			rows, errs := experiments.MeasureLoadRamp(b.ramp, b.seed, b.rampCycles, []float64{mult}, nil)
			r.attempted += len(rows) + len(errs) - 1 // one operation per ramp cell
			for _, row := range rows {
				h.add("ramp %.2f %t %+v", row.Mult, row.Admission, row.Res)
				s := row.Res.Overload
				p.n["overload_ramp_admitted"] += float64(s.Admitted)
				p.n["overload_ramp_rejected"] += float64(s.Rejected)
				p.n["overload_ramp_shed"] += float64(s.Shed)
				completed += s.Completed
				offered += s.Offered()
				reqs := row.Res.OfferedLoad * float64(b.rampCycles) / modelHz
				p.n["ramp_offered"] += reqs
				p.items += reqs
			}
			if len(errs) > 0 {
				r.failed += len(errs) - 1
				return fmt.Errorf("%v", errs[0])
			}
			return nil
		})
	}
	if offered > 0 {
		p.n["overload_ramp_served_frac"] = float64(completed) / float64(offered)
	}
	p.model = h.sum()
}

func (b *servingBench) metrics(r *runner, ps []*pass) map[string]float64 {
	out := make(map[string]float64)
	for _, k := range []string{"fleet_injected", "fleet_attempts", "fleet_retries", "fleet_hedges", "fleet_migrated",
		"fleet_ejections", "fleet_goodput_frac", "overload_fleet_served_frac", "overload_fleet_admitted",
		"overload_fleet_rejected", "overload_ramp_admitted", "overload_ramp_rejected", "overload_ramp_shed",
		"overload_ramp_served_frac"} {
		out[k] = ps[0].n[k]
	}
	series := make(map[string][]float64)
	add := func(name string, v float64) { series[name] = append(series[name], v) }
	for _, p := range ps {
		serialMs := float64(p.dur["fleet/serial"].Nanoseconds()) / 1e6
		poolMs := float64(p.dur["fleet/pool"].Nanoseconds()) / 1e6
		add("fleet_serial_kreq_per_s", p.n["fleet_injected"]/serialMs)
		add("fleet_pool_kreq_per_s", p.n["fleet_injected"]/poolMs)
		add("engine_pool_speedup", serialMs/poolMs)
		add("fleet_alloc_mb_per_run", float64(p.alloc["fleet/serial"])/1e6)
		var rampMs float64
		for _, mult := range experiments.RampMults {
			ms := float64(p.dur[fmt.Sprintf("ramp/%.1fx", mult)].Nanoseconds()) / 1e6
			add(fmt.Sprintf("shenango_%.1fx_ms", mult), ms)
			rampMs += ms
		}
		add("shenango_kreq_per_s", p.n["ramp_offered"]/rampMs)
	}
	for k, xs := range series {
		out[k] = median(xs)
	}
	return out
}
