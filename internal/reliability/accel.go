package reliability

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"arcc/internal/faultmodel"
	"arcc/internal/mc"
	"arcc/internal/stats"
)

// Rare-event acceleration for the lifetime Monte Carlos. At field rates
// most channels see zero faults over their whole lifespan, so the plain
// estimators spend nearly every trial adding zero; the accelerated paths
// draw fault histories from an importance-sampling proposal (see
// faultmodel's conditional and tilted samplers) and weight each trial by
// its exact likelihood ratio, reaching the same target confidence
// interval with orders of magnitude fewer trials. DESIGN.md
// "Rare-event acceleration" has the derivation and the determinism
// contract.

// AccelMode selects the sampling proposal of an accelerated lifetime
// Monte Carlo.
type AccelMode int

const (
	// AccelNone is plain sampling: every trial weight is 1 and the
	// estimate reproduces the unaccelerated functions bit for bit.
	AccelNone AccelMode = iota
	// AccelConditional samples conditioned on at least one fault in the
	// lifespan. Exact (not just unbiased) for both lifetime metrics,
	// because a zero-fault channel contributes exactly zero to them.
	AccelConditional
	// AccelTilted samples with all fault rates scaled by Accel.Tilt.
	AccelTilted
)

// Accel selects and parameterises the acceleration of a lifetime Monte
// Carlo. The zero value is plain sampling.
type Accel struct {
	Mode AccelMode
	// Tilt is the rate-scaling factor of AccelTilted (ignored otherwise).
	// Must be positive; values above 1 make faults commoner and are the
	// useful regime.
	Tilt float64
}

// Validate reports whether the combination is usable.
func (a Accel) Validate() error {
	switch a.Mode {
	case AccelNone, AccelConditional:
		return nil
	case AccelTilted:
		if a.Tilt <= 0 || math.IsNaN(a.Tilt) || math.IsInf(a.Tilt, 0) {
			return fmt.Errorf("reliability: tilt factor %v must be positive and finite", a.Tilt)
		}
		return nil
	default:
		return fmt.Errorf("reliability: unknown acceleration mode %d", int(a.Mode))
	}
}

// String renders the accel in the form ParseAccel accepts.
func (a Accel) String() string {
	switch a.Mode {
	case AccelConditional:
		return "conditional"
	case AccelTilted:
		return "tilt:" + strconv.FormatFloat(a.Tilt, 'g', -1, 64)
	default:
		return "none"
	}
}

// ParseAccel parses an acceleration spec: "" or "none" (plain sampling),
// "conditional", or "tilt:<factor>" with a positive finite factor.
func ParseAccel(s string) (Accel, error) {
	switch {
	case s == "" || s == "none":
		return Accel{}, nil
	case s == "conditional":
		return Accel{Mode: AccelConditional}, nil
	case strings.HasPrefix(s, "tilt:"):
		f, err := strconv.ParseFloat(strings.TrimPrefix(s, "tilt:"), 64)
		if err != nil {
			return Accel{}, fmt.Errorf("reliability: bad tilt factor in %q: %v", s, err)
		}
		a := Accel{Mode: AccelTilted, Tilt: f}
		if err := a.Validate(); err != nil {
			return Accel{}, err
		}
		return a, nil
	default:
		return Accel{}, fmt.Errorf("reliability: unknown acceleration %q (want none, conditional, or tilt:<factor>)", s)
	}
}

// SeriesStats is the full statistical result of a lifetime Monte Carlo:
// the per-year estimate with its uncertainty, rather than the bare means
// the plain functions return.
type SeriesStats struct {
	// Mean is the per-year estimate (years 1..len(Mean)). With AccelNone
	// it is bit-identical to the corresponding plain function's result;
	// accelerated runs estimate the same quantity unbiasedly.
	Mean []float64
	// CI95 is the per-year half-width of the 95% confidence interval of
	// Mean under the normal approximation.
	CI95 []float64
	// ESS is Kish's effective sample size of the trial weights — equal to
	// Trials for plain sampling, lower when acceleration spreads the
	// weights.
	ESS float64
	// Trials is the number of Monte Carlo channels actually sampled.
	Trials int
	// Accel records how the trials were drawn.
	Accel Accel
	// FinalSketch summarises the distribution of the final year's
	// per-channel value (a quantile sketch over raw observations). Only
	// populated for AccelNone — weighted observations have no meaningful
	// raw quantiles.
	FinalSketch *stats.QuantileSketch
}

// FaultyPageFractionStatsCtx is FaultyPageFractionCtx with streaming
// statistics and optional rare-event acceleration: per-year mean with
// 95% confidence interval, effective sample size, and (for plain
// sampling) a quantile sketch of the final year. With accel.Mode ==
// AccelNone the Mean series is bit-identical to FaultyPageFractionCtx at
// any parallelism.
func FaultyPageFractionStatsCtx(ctx context.Context, seed int64, opts mc.Options, rates faultmodel.Rates, shape faultmodel.ChannelShape,
	ranks, devicesPerRank int, years, channels int, accel Accel) (*SeriesStats, error) {
	return FaultyPageFractionStatsBurstCtx(ctx, seed, opts, rates, faultmodel.Burst{}, shape, ranks, devicesPerRank, years, channels, accel)
}

// FaultyPageFractionStatsBurstCtx is FaultyPageFractionStatsCtx under a
// correlated fault-burst model. Burst expansion composes exactly with
// every acceleration mode: the trial weight is the likelihood ratio of
// the primary arrival process alone, and expansion is drawn from the
// identical conditional law under the nominal and proposal processes, so
// the weighted estimate stays unbiased. A zero burst consumes no
// randomness and reproduces FaultyPageFractionStatsCtx bit for bit.
func FaultyPageFractionStatsBurstCtx(ctx context.Context, seed int64, opts mc.Options, rates faultmodel.Rates, burst faultmodel.Burst,
	shape faultmodel.ChannelShape, ranks, devicesPerRank int, years, channels int, accel Accel) (*SeriesStats, error) {
	if years <= 0 || channels <= 0 {
		panic("reliability: invalid years/channels")
	}
	return runSeriesStats(ctx, seed, opts, rates, burst, ranks, devicesPerRank, years, channels, accel,
		func(arrivals []faultmodel.Arrival, series []float64) {
			faultyPageSeries(arrivals, shape, years, series)
		})
}

// LifetimeOverheadStatsCtx is LifetimeOverheadCtx with streaming
// statistics and optional rare-event acceleration, with the same
// contract as FaultyPageFractionStatsCtx: AccelNone means are
// bit-identical to the plain function, accelerated means estimate the
// same quantity unbiasedly with far fewer trials.
func LifetimeOverheadStatsCtx(ctx context.Context, seed int64, opts mc.Options, rates faultmodel.Rates, ranks, devicesPerRank int,
	years, channels int, overhead OverheadByType, cap float64, accel Accel) (*SeriesStats, error) {
	return LifetimeOverheadStatsBurstCtx(ctx, seed, opts, rates, faultmodel.Burst{}, ranks, devicesPerRank, years, channels, overhead, cap, accel)
}

// LifetimeOverheadStatsBurstCtx is LifetimeOverheadStatsCtx under a
// correlated fault-burst model, with the same exact-composition contract
// as FaultyPageFractionStatsBurstCtx.
func LifetimeOverheadStatsBurstCtx(ctx context.Context, seed int64, opts mc.Options, rates faultmodel.Rates, burst faultmodel.Burst,
	ranks, devicesPerRank int, years, channels int, overhead OverheadByType, cap float64, accel Accel) (*SeriesStats, error) {
	if years <= 0 || channels <= 0 || cap <= 0 {
		panic(fmt.Sprintf("reliability: invalid lifetime-overhead arguments (years=%d channels=%d cap=%v)", years, channels, cap))
	}
	return runSeriesStats(ctx, seed, opts, rates, burst, ranks, devicesPerRank, years, channels, accel,
		func(arrivals []faultmodel.Arrival, series []float64) {
			overheadSeries(arrivals, overhead, cap, years, series)
		})
}

// runSeriesStats runs one weighted lifetime Monte Carlo: trials draw an
// arrival history under the accel's proposal, expand it under the burst
// model, evaluate the per-year series with exactly the helper the plain
// functions use, and weight the trial by the primary process's likelihood
// ratio (exact under expansion — see FaultyPageFractionStatsBurstCtx).
func runSeriesStats(ctx context.Context, seed int64, opts mc.Options, rates faultmodel.Rates, burst faultmodel.Burst,
	ranks, devicesPerRank int, years, channels int, accel Accel, series func(arrivals []faultmodel.Arrival, series []float64)) (*SeriesStats, error) {
	if err := accel.Validate(); err != nil {
		return nil, err
	}
	if err := burst.Validate(); err != nil {
		return nil, err
	}
	if accel.Mode == AccelConditional && faultmodel.ExpectedArrivals(rates, ranks, devicesPerRank, float64(years)) <= 0 {
		return nil, fmt.Errorf("reliability: conditional acceleration of a zero-rate fault process (nothing to condition on)")
	}
	proc := faultmodel.NewArrivalProcess(rates, ranks, devicesPerRank, float64(years))
	tiltHint := burst.CapHintFactor()
	if accel.Mode == AccelTilted {
		tiltHint *= accel.Tilt
	}
	job := mc.WeightedJob{
		Trials:     channels,
		Seed:       seed,
		Dims:       years,
		NewScratch: newArrivalScratch(rates, ranks, devicesPerRank, float64(years), tiltHint),
		Trial: func(rng *rand.Rand, _ int, sc any, vals []float64) float64 {
			scratch := sc.(*arrivalScratch)
			var arrivals []faultmodel.Arrival
			w := 1.0
			switch accel.Mode {
			case AccelConditional:
				arrivals, w = proc.SampleConditionalInto(rng, scratch.buf)
			case AccelTilted:
				arrivals, w = proc.SampleTiltedInto(rng, scratch.buf, accel.Tilt)
			default:
				arrivals = proc.SampleInto(rng, scratch.buf)
			}
			arrivals = burst.ExpandInto(rng, arrivals)
			scratch.buf = arrivals
			series(arrivals, vals)
			return w
		},
	}
	if accel.Mode == AccelNone {
		// Raw per-channel quantiles are only meaningful when every trial
		// weight is 1; sketch the final year's distribution.
		job.SketchDims = []int{years - 1}
	}
	set, err := mc.RunWeightedCtx(ctx, job, opts)
	if err != nil {
		return nil, err
	}
	out := &SeriesStats{
		Mean:        make([]float64, years),
		CI95:        make([]float64, years),
		ESS:         set.Dims[years-1].ESS(),
		Trials:      channels,
		Accel:       accel,
		FinalSketch: set.Sketch(years - 1),
	}
	for i := range out.Mean {
		out.Mean[i] = set.Dims[i].Mean()
		out.CI95[i] = set.Dims[i].CI95()
	}
	return out, nil
}
