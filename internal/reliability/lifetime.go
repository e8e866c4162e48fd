package reliability

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"

	"arcc/internal/faultmodel"
	"arcc/internal/mc"
)

// yearSums accumulates per-year sums over the Monte Carlo channels of one
// shard; Merge adds element-wise, so the shard-ordered fold of the engine
// reproduces a serial summation bit for bit.
type yearSums struct {
	sums []float64
}

func newYearSums(years int) func() mc.Accumulator {
	return func() mc.Accumulator { return &yearSums{sums: make([]float64, years)} }
}

func (a *yearSums) Merge(other mc.Accumulator) {
	o := other.(*yearSums)
	for i, v := range o.sums {
		a.sums[i] += v
	}
}

// MarshalBinary makes the lifetime Monte Carlos checkpointable (see
// mc.CheckpointConfig): the per-year sums are stored as raw IEEE-754
// bits, so the round trip is exact and a resumed sweep reproduces an
// uninterrupted one bit for bit.
func (a *yearSums) MarshalBinary() ([]byte, error) {
	out := make([]byte, 8*len(a.sums))
	for i, v := range a.sums {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out, nil
}

// UnmarshalBinary restores a shard's per-year sums from MarshalBinary
// bytes. The accumulator must have been created for the same year count.
func (a *yearSums) UnmarshalBinary(b []byte) error {
	if len(b) != 8*len(a.sums) {
		return fmt.Errorf("reliability: year-sums snapshot holds %d bytes, want %d", len(b), 8*len(a.sums))
	}
	for i := range a.sums {
		a.sums[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return nil
}

// arrivalScratch is the per-shard workspace of the lifetime Monte Carlos:
// one fault-arrival buffer plus one per-year series buffer, reused by
// every trial of a shard. Both only carry capacity between trials — the
// samplers overwrite the arrival buffer from scratch and the
// series helpers overwrite every year slot — so reuse cannot leak state
// across trials.
type arrivalScratch struct {
	buf    []faultmodel.Arrival
	series []float64
}

// newArrivalScratch sizes the per-shard buffer for the channel geometry so
// the steady state samples without reallocating. tiltHint scales the
// arrival capacity for rate-tilted sampling (1 for plain sampling).
func newArrivalScratch(rates faultmodel.Rates, ranks, devicesPerRank int, years float64, tiltHint float64) func() any {
	hint := faultmodel.ArrivalCapHint(rates, ranks, devicesPerRank, years)
	if tiltHint > 1 {
		hint = int(float64(hint) * tiltHint)
	}
	yearBuf := int(years)
	return func() any {
		return &arrivalScratch{
			buf:    make([]faultmodel.Arrival, 0, hint),
			series: make([]float64, yearBuf),
		}
	}
}

// faultyPageSeries writes one channel's per-year faulty-page fraction
// into series (len == years): the union bound over the faults that have
// arrived by the end of each year, capped at 1. Fault spans are large and
// disjointness dominates at these counts, so the cap only binds for
// multi-fault channels with lane faults.
func faultyPageSeries(arrivals []faultmodel.Arrival, shape faultmodel.ChannelShape, years int, series []float64) {
	idx := 0
	frac := 0.0
	for y := 1; y <= years; y++ {
		limit := float64(y) * faultmodel.HoursPerYear
		for idx < len(arrivals) && arrivals[idx].AtHours <= limit {
			frac += shape.UpgradedFraction(arrivals[idx].Type)
			idx++
		}
		if frac > 1 {
			series[y-1] = 1
		} else {
			series[y-1] = frac
		}
	}
}

// overheadSeries writes one channel's per-year time-averaged overhead
// into series (len == years): the overhead step function — additive per
// fault from its arrival onward, capped at cap — integrated from
// power-on through the end of each year and divided by the elapsed
// hours.
func overheadSeries(arrivals []faultmodel.Arrival, overhead OverheadByType, cap float64, years int, series []float64) {
	integrated := 0.0 // overhead-hours accumulated so far
	current := 0.0
	lastT := 0.0
	idx := 0
	for y := 1; y <= years; y++ {
		limit := float64(y) * faultmodel.HoursPerYear
		for idx < len(arrivals) && arrivals[idx].AtHours <= limit {
			arr := arrivals[idx]
			integrated += current * (arr.AtHours - lastT)
			lastT = arr.AtHours
			if ov, ok := overhead[arr.Type]; ok {
				current += ov
				if current > cap {
					current = cap
				}
			}
			idx++
		}
		integrated += current * (limit - lastT)
		lastT = limit
		series[y-1] = integrated / limit
	}
}

// FaultyPageFractionCtx reproduces Fig 3.1: the average fraction of a
// channel's 4 KB pages that has been affected by at least one fault, as a
// function of operational lifespan, under the worst-case assumption that
// every location under faulty circuitry is corrupted. It Monte Carlo
// averages over channels — sharded across workers per opts, bit-identical
// at any parallelism for a given seed — and returns one value per year
// 1..years. A cancelled context returns (nil, mc.ErrCanceled) within one
// shard boundary instead of completing the fan-out.
func FaultyPageFractionCtx(ctx context.Context, seed int64, opts mc.Options, rates faultmodel.Rates, shape faultmodel.ChannelShape,
	ranks, devicesPerRank int, years, channels int) ([]float64, error) {
	return FaultyPageFractionBurstCtx(ctx, seed, opts, rates, faultmodel.Burst{}, shape, ranks, devicesPerRank, years, channels)
}

// FaultyPageFractionBurstCtx is FaultyPageFractionCtx under a correlated
// fault-burst model: each sampled history is expanded by burst before the
// per-year series is evaluated. A zero burst consumes no randomness, so
// the result is bit-identical to FaultyPageFractionCtx.
func FaultyPageFractionBurstCtx(ctx context.Context, seed int64, opts mc.Options, rates faultmodel.Rates, burst faultmodel.Burst,
	shape faultmodel.ChannelShape, ranks, devicesPerRank int, years, channels int) ([]float64, error) {
	if years <= 0 || channels <= 0 {
		panic("reliability: invalid years/channels")
	}
	return runSeriesMean(ctx, seed, opts, rates, burst, ranks, devicesPerRank, years, channels,
		func(arrivals []faultmodel.Arrival, series []float64) {
			faultyPageSeries(arrivals, shape, years, series)
		})
}

// OverheadByType maps the large-span fault types to the overhead (power
// increase or performance decrease, as a fraction) a channel suffers once
// that fault's pages are upgraded — the per-fault measurements of
// Figs 7.2/7.3 feed in here.
type OverheadByType map[faultmodel.Type]float64

// LifetimeOverheadCtx reproduces the Fig 7.4/7.5 methodology: Monte
// Carlo over channels channels, each accumulating the overhead of every
// fault from its arrival time onward (additive per fault, capped at cap —
// the overhead of a fully-upgraded memory). For each year X it reports the
// overhead time-averaged from power-on through the end of year X,
// averaged over channels. Channels are sharded across workers per opts;
// the result is bit-identical at any parallelism for a given seed. A
// cancelled context returns (nil, mc.ErrCanceled) within one shard
// boundary instead of completing the fan-out.
func LifetimeOverheadCtx(ctx context.Context, seed int64, opts mc.Options, rates faultmodel.Rates, ranks, devicesPerRank int,
	years, channels int, overhead OverheadByType, cap float64) ([]float64, error) {
	return LifetimeOverheadBurstCtx(ctx, seed, opts, rates, faultmodel.Burst{}, ranks, devicesPerRank, years, channels, overhead, cap)
}

// LifetimeOverheadBurstCtx is LifetimeOverheadCtx under a correlated
// fault-burst model: each sampled history is expanded by burst before the
// overhead series is evaluated. A zero burst consumes no randomness, so
// the result is bit-identical to LifetimeOverheadCtx.
func LifetimeOverheadBurstCtx(ctx context.Context, seed int64, opts mc.Options, rates faultmodel.Rates, burst faultmodel.Burst,
	ranks, devicesPerRank int, years, channels int, overhead OverheadByType, cap float64) ([]float64, error) {
	if years <= 0 || channels <= 0 || cap <= 0 {
		panic(fmt.Sprintf("reliability: invalid lifetime-overhead arguments (years=%d channels=%d cap=%v)", years, channels, cap))
	}
	return runSeriesMean(ctx, seed, opts, rates, burst, ranks, devicesPerRank, years, channels,
		func(arrivals []faultmodel.Arrival, series []float64) {
			overheadSeries(arrivals, overhead, cap, years, series)
		})
}

// runSeriesMean runs one plain lifetime Monte Carlo, the unweighted
// counterpart of runSeriesStats: trials draw an arrival history from the
// call's prepared arrival process, expand it under the burst model,
// evaluate the per-year series, and add it to the shard's per-year sums;
// the merged sums are divided by the channel count.
func runSeriesMean(ctx context.Context, seed int64, opts mc.Options, rates faultmodel.Rates, burst faultmodel.Burst,
	ranks, devicesPerRank int, years, channels int, series func(arrivals []faultmodel.Arrival, series []float64)) ([]float64, error) {
	if err := burst.Validate(); err != nil {
		return nil, err
	}
	proc := faultmodel.NewArrivalProcess(rates, ranks, devicesPerRank, float64(years))
	acc, err := mc.RunCtx(ctx, mc.Job{
		Trials:     channels,
		Seed:       seed,
		NewAcc:     newYearSums(years),
		NewScratch: newArrivalScratch(rates, ranks, devicesPerRank, float64(years), burst.CapHintFactor()),
		TrialScratch: func(rng *rand.Rand, _ int, a mc.Accumulator, sc any) {
			sums := a.(*yearSums).sums
			scratch := sc.(*arrivalScratch)
			arrivals := proc.SampleInto(rng, scratch.buf)
			arrivals = burst.ExpandInto(rng, arrivals)
			scratch.buf = arrivals
			series(arrivals, scratch.series)
			for i, v := range scratch.series {
				sums[i] += v
			}
		},
	}, opts)
	if err != nil {
		return nil, err
	}
	sums := acc.(*yearSums).sums
	for i := range sums {
		sums[i] /= float64(channels)
	}
	return sums, nil
}

// WorstCaseOverheads derives the Fig 7.4/7.5 "worst case est." inputs from
// Table 7.4 spans: with zero spatial locality, every access to an upgraded
// page costs factor-1 extra (factor 2 for ARCC on commercial chipkill:
// double power, half bandwidth), so a fault that upgrades fraction f of
// pages costs (factor-1)*f.
func WorstCaseOverheads(shape faultmodel.ChannelShape, factor float64) OverheadByType {
	if factor < 1 {
		panic("reliability: worst-case factor below 1")
	}
	out := OverheadByType{}
	for _, t := range faultmodel.Types() {
		if t.IsTransientScale() {
			continue // page-scale spans: negligible overhead (Table 7.4)
		}
		out[t] = (factor - 1) * shape.UpgradedFraction(t)
	}
	return out
}
