package fleet

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/faults"
)

// scaleSoakConfig mirrors experiments.FleetScaleConfig(seed, 1) — the
// 64-replica, 4-zone migrating soak the benchmark's serving workload
// runs — without importing experiments (which imports this package).
func scaleSoakConfig(seed uint64) Config {
	return Config{
		Replicas:      64,
		Tenants:       8,
		Zones:         4,
		Policy:        P2CDeadline,
		Seed:          seed,
		HorizonCycles: 26_000_000,
		LoadFactor:    1.0,
		Migrate:       true,
		Faults: &faults.Plan{
			Seed:                   seed,
			ZoneCrashMeanGapCycles: 13_000_000,
			ZoneCrashDownCycles:    1_300_000,
		},
		OutageZones: 1,
	}
}

// TestFleetFingerprintGolden pins Result fingerprints over a matrix of
// every routing policy, with and without zones + migration, hedging,
// a misbehaving tenant and crash-looping replicas, on a nil pool and
// on 4 workers. Host-performance work on the fleet loop must leave
// every model output byte-identical; a changed value here is a model
// change and needs its own justification, not a re-pin.
func TestFleetFingerprintGolden(t *testing.T) {
	with := func(c Config, p Policy) Config { c.Policy = p; return c }
	cases := []struct {
		name string
		cfg  Config
		want uint64
	}{
		// testConfig: crashes + gray windows on 2 of 4 replicas,
		// hedging, misbehaving tenant 1.
		{"rr", with(testConfig(), RoundRobin), 0xaf63fb2f488767db},
		{"least", with(testConfig(), LeastLoaded), 0xa26b33ca12e2db1f},
		{"p2c", testConfig(), 0xd329ac4daeeccb2f},
		// zoneConfig: 8 replicas / 4 zones, per-replica and zone
		// crashes, zone gray windows, hedging, migration.
		{"zones+migration/rr", with(zoneConfig(), RoundRobin), 0x76fa07528dbf1a51},
		{"zones+migration/least", with(zoneConfig(), LeastLoaded), 0xf0eeedfd6d8a4569},
		{"zones+migration/p2c", zoneConfig(), 0xbdd3d01d7b7c2c3f},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			for _, pool := range []*engine.Pool{nil, engine.NewPool(4)} {
				res := Run(tc.cfg, pool)
				if err := res.Conservation(); err != nil {
					t.Fatal(err)
				}
				if got := res.Fingerprint(); got != tc.want {
					t.Errorf("workers=%d fingerprint %016x, want %016x", pool.Workers(), got, tc.want)
				}
			}
		})
	}
	t.Run("scale-soak", func(t *testing.T) {
		res := Run(scaleSoakConfig(1), nil)
		if err := res.Conservation(); err != nil {
			t.Fatal(err)
		}
		if got, want := res.Fingerprint(), uint64(0x365252b58bd16452); got != want {
			t.Errorf("scale soak fingerprint %016x, want %016x", got, want)
		}
	})
}
