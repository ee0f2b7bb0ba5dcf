package geo

import (
	"math"
	"testing"
)

// FuzzGeoConfig drives Config.Validate with arbitrary region counts,
// asymmetric RTT matrices, and hostile latencies (NaN, Inf, negative).
// Validate must never panic, must reject non-finite or negative
// latencies, and any configuration it accepts must build a working
// Matrix whose links stay finite and non-negative.
func FuzzGeoConfig(f *testing.F) {
	f.Add(uint8(2), uint8(2), 0.001, 0.08, 0.09, 0.8, 0.1, 10.0, uint8(0), int16(0), int16(5), int64(1))
	f.Add(uint8(3), uint8(1), 0.0, 0.18, 0.12, 0.0, 0.0, 0.0, uint8(2), int16(3), int16(2), int64(7))
	f.Add(uint8(1), uint8(0), math.NaN(), -1.0, math.Inf(1), 1.5, -0.5, math.NaN(), uint8(9), int16(-1), int16(-2), int64(0))
	f.Add(uint8(0), uint8(4), 0.05, 0.05, 0.05, 0.99, 1.0, 1.0, uint8(1), int16(0), int16(0), int64(-3))
	f.Add(uint8(2), uint8(2), 0.001, 0.08, 0.09, math.NaN(), 0.1, 10.0, uint8(0), int16(0), int16(5), int64(1))
	f.Fuzz(func(t *testing.T, regions, workers uint8, intra, rttAB, rttBA, phi, sigma, outageRTT float64, outRegion uint8, outFrom, outTo int16, seed int64) {
		nr := int(regions % 6)
		rc := make([]RegionConfig, nr)
		rtt := make([][]float64, nr)
		for i := range rc {
			rc[i] = RegionConfig{Name: string(rune('a' + i)), Workers: int(workers % 5)}
			rtt[i] = make([]float64, nr)
			for j := range rtt[i] {
				switch {
				case i == j:
					rtt[i][j] = intra
				case i < j:
					rtt[i][j] = rttAB // asymmetric: upper triangle
				default:
					rtt[i][j] = rttBA
				}
			}
		}
		cfg := Config{
			Regions:   rc,
			Frontend:  0,
			RTT:       rtt,
			Phi:       phi,
			Sigma:     sigma,
			OutageRTT: outageRTT,
			Outages:   []Outage{{Region: int(outRegion % 7), FromRound: int(outFrom), ToRound: int(outTo)}},
			Seed:      seed,
		}
		err := cfg.Validate()
		if err != nil {
			if err.Error() == "" {
				t.Fatal("empty validation error")
			}
			return
		}
		for _, row := range cfg.RTT {
			for _, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					t.Fatalf("Validate accepted hostile latency %v in %+v", v, cfg)
				}
			}
		}
		m, err := NewMatrix(cfg)
		if err != nil {
			t.Fatalf("Validate accepted %+v but NewMatrix rejected it: %v", cfg, err)
		}
		for round := 0; round < 3; round++ {
			m.Advance()
			for a := range cfg.Regions {
				for b := range cfg.Regions {
					if v := m.RTT(a, b); math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
						t.Fatalf("round %d: RTT(%d,%d) = %v from accepted config %+v", round, a, b, v, cfg)
					}
				}
			}
		}
		for w := 0; w < cfg.N(); w++ {
			if r := m.WorkerRegion(w); r < 0 || r >= len(cfg.Regions) {
				t.Fatalf("WorkerRegion(%d) = %d out of range", w, r)
			}
		}
		if _, err := cfg.LinkDelay(0, cfg.N()-1); err != nil {
			t.Fatalf("LinkDelay rejected accepted config %+v: %v", cfg, err)
		}
	})
}
