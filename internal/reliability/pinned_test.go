package reliability

import (
	"context"
	"math"
	"testing"

	"arcc/internal/faultmodel"
	"arcc/internal/mc"
)

// floatDigest hashes float64s by their exact bits (FNV-1a 64).
func floatDigest(xs []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, x := range xs {
		b := math.Float64bits(x)
		for i := 0; i < 8; i++ {
			h ^= b & 0xff
			h *= 1099511628211
			b >>= 8
		}
	}
	return h
}

// statsBits flattens a SeriesStats into the floats a digest covers: the
// per-year mean and CI, the ESS and, when present, final-year quantiles.
func statsBits(s *SeriesStats) []float64 {
	out := append(append([]float64{s.ESS}, s.Mean...), s.CI95...)
	if s.FinalSketch != nil {
		for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
			out = append(out, s.FinalSketch.Quantile(q))
		}
	}
	return out
}

// TestLifetimePinnedDigests pins the exact bits of every lifetime Monte
// Carlo path — plain, row+bank bursts, conditional and tilted
// acceleration, and the SDC event simulation — to digests recorded
// before the engine's per-worker RNG stream and the prepared arrival
// process were introduced. Each case runs at parallelism 1 and 4; both
// must hit the same digest.
func TestLifetimePinnedDigests(t *testing.T) {
	ctx := context.Background()
	shape := faultmodel.ARCCChannelShape()
	field := faultmodel.FieldStudyRates()
	hot := field.Scale(40)
	partial := faultmodel.Rates{faultmodel.Row: 300, faultmodel.Column: 200, faultmodel.Device: 0, faultmodel.Lane: 40}
	ov := WorstCaseOverheads(shape, 2)
	burst := faultmodel.Burst{RowProb: 0.4, RowMean: 3, RowMax: 8, BankProb: 0.3, BankMean: 2, BankMax: 6}
	inflated := DefaultParams()
	inflated.Rates = inflated.Rates.Scale(3000)
	inflated.LifeYears = 1

	cases := []struct {
		name string
		want uint64
		run  func(opts mc.Options) []float64
	}{
		{"faulty-pages/field", 0xd2943790d17db171, func(opts mc.Options) []float64 {
			return must(FaultyPageFractionCtx(ctx, 21, opts, field, shape, 2, 18, 7, 6000))
		}},
		{"overhead/hot", 0xe89d1f20a1623177, func(opts mc.Options) []float64 {
			return must(LifetimeOverheadCtx(ctx, -22, opts, hot, 2, 36, 5, 3000, ov, 1.0))
		}},
		{"faulty-pages/burst", 0x965806bcf87be102, func(opts mc.Options) []float64 {
			return must(FaultyPageFractionBurstCtx(ctx, 23, opts, hot, burst, shape, 2, 18, 7, 3000))
		}},
		{"overhead/partial-rates", 0x892c1218c88aaf23, func(opts mc.Options) []float64 {
			return must(LifetimeOverheadCtx(ctx, 24, opts, partial, 1, 9, 4, 2000, ov, 0.5))
		}},
		{"faulty-pages-stats/none", 0xee077745204dc9e4, func(opts mc.Options) []float64 {
			return statsBits(must(FaultyPageFractionStatsCtx(ctx, 25, opts, hot, shape, 2, 18, 7, 3000, Accel{})))
		}},
		{"faulty-pages-stats/conditional", 0xd21159236ecffc34, func(opts mc.Options) []float64 {
			return statsBits(must(FaultyPageFractionStatsCtx(ctx, 26, opts, field, shape, 2, 18, 7, 3000, Accel{Mode: AccelConditional})))
		}},
		{"overhead-stats/conditional-burst", 0xc28d3171c97d4e5c, func(opts mc.Options) []float64 {
			return statsBits(must(LifetimeOverheadStatsBurstCtx(ctx, 27, opts, field, burst, 2, 36, 7, 3000, ov, 1.0, Accel{Mode: AccelConditional})))
		}},
		{"overhead-stats/tilted", 0x67ff187e28cc5bdd, func(opts mc.Options) []float64 {
			return statsBits(must(LifetimeOverheadStatsCtx(ctx, 28, opts, field, 2, 36, 7, 3000, ov, 1.0, Accel{Mode: AccelTilted, Tilt: 20})))
		}},
		{"faulty-pages-stats/tilted-burst", 0x1c852b6080c145ba, func(opts mc.Options) []float64 {
			return statsBits(must(FaultyPageFractionStatsBurstCtx(ctx, 29, opts, partial, burst, shape, 1, 9, 4, 3000, Accel{Mode: AccelTilted, Tilt: 0.7})))
		}},
		{"arcc-ded-sdc", 0xf3cdc3261b65b19, func(opts mc.Options) []float64 {
			return []float64{float64(must(SimulateARCCDEDCtx(ctx, 30, opts, inflated, 3000)))}
		}},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 4} {
			if got := floatDigest(tc.run(mc.Options{Parallelism: par})); got != tc.want {
				t.Errorf("%s at parallelism %d: digest %#x, want %#x", tc.name, par, got, tc.want)
			}
		}
	}
}
