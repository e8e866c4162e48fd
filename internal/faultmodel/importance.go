package faultmodel

import (
	"math"
	"math/rand"
)

// Importance-sampled fault histories. At field rates a channel usually
// sees zero faults over its whole lifespan, so naive Monte Carlo spends
// nearly every trial confirming that nothing happened — useless for the
// tail statistics the lifetime figures are after. The samplers in this
// file draw from a *proposal* arrival process under which faults are
// common and return, alongside the trajectory, its exact likelihood ratio
// against the unconditioned Poisson process SampleArrivals draws from.
// Estimators weight each trial by that ratio and stay unbiased (see
// DESIGN.md "Rare-event acceleration" for the derivation).
//
// Both ratios are closed-form because the arrival process is Poisson:
//
//   - Conditional ("at least one fault"): every sampled trajectory has
//     n >= 1 and carries the constant weight 1 - e^{-λ}, where λ is the
//     channel-aggregated arrival mean. The zero-fault stratum is left to
//     the caller — for any statistic with f(no faults) = 0 it contributes
//     exactly nothing, so the weighted mean alone is the full estimate.
//   - Rate-tilted (rates scaled by θ): a trajectory with n total arrivals
//     carries weight e^{(θ-1)λ} · θ^{-n} — the per-type Poisson count
//     ratios multiplied out; arrival times and device positions are
//     uniform under both processes and cancel.

// SampleArrivalsConditionalInto draws a fault history conditioned on at
// least one arrival in the lifespan; it is SampleConditionalInto on a
// freshly prepared process.
func SampleArrivalsConditionalInto(rng *rand.Rand, buf []Arrival, rates Rates, ranks, devicesPerRank int, years float64) ([]Arrival, float64) {
	p := newArrivalProcess(rates, ranks, devicesPerRank, years)
	p.prepareConditional()
	return p.SampleConditionalInto(rng, buf)
}

// SampleConditionalInto draws a fault history conditioned on at least
// one arrival in the lifespan into buf's capacity (contents ignored,
// backing array reused), returning the sorted trajectory and its
// likelihood ratio 1 - e^{-λ} against the unconditioned process. It
// panics when the aggregated rate is zero (conditioning on an impossible
// event). The total count comes from the zero-truncated Poisson; each
// arrival's type is then categorical with probability proportional to the
// type's aggregated rate — the standard marked-Poisson factorization, so
// the conditional law exactly matches SampleInto given n >= 1.
func (p *ArrivalProcess) SampleConditionalInto(rng *rand.Rand, buf []Arrival) ([]Arrival, float64) {
	if p.total <= 0 {
		panic("faultmodel: conditional sampling of a zero-rate arrival process")
	}
	n := zeroTruncatedPoisson(rng, p.total, p.totalExp, p.totalP1)
	out := buf[:0]
	for i := 0; i < n; i++ {
		// Inverse-CDF walk over the per-type means; u lands past the last
		// bucket only through float rounding, in which case the last
		// nonzero-rate type absorbs it.
		u := rng.Float64() * p.total
		var typ Type
		for j := 0; j < p.n; j++ {
			lt := p.mean[j]
			if lt <= 0 {
				continue
			}
			typ = p.types[j]
			if u < lt {
				break
			}
			u -= lt
		}
		out = append(out, p.arrival(rng, typ))
	}
	sortArrivals(out)
	return out, p.condWeight
}

// SampleTiltedInto draws a fault history under rates scaled by tilt into
// buf's capacity (contents ignored, backing array reused) and returns the
// sorted trajectory with its likelihood ratio e^{(tilt-1)λ} · tilt^{-n}
// against the unscaled process (λ the unscaled aggregated mean, n the
// trajectory's arrival count). tilt must be positive; values above 1
// make faults commoner and are the useful regime.
func (p *ArrivalProcess) SampleTiltedInto(rng *rand.Rand, buf []Arrival, tilt float64) ([]Arrival, float64) {
	if tilt <= 0 || math.IsNaN(tilt) || math.IsInf(tilt, 0) {
		panic("faultmodel: tilt factor must be positive and finite")
	}
	out := buf[:0]
	for i := 0; i < p.n; i++ {
		mean := p.mean[i] * tilt
		n := poisson(rng, mean, math.Exp(-mean))
		for k := 0; k < n; k++ {
			out = append(out, p.arrival(rng, p.types[i]))
		}
	}
	sortArrivals(out)
	// p.total also sums the zero-rate types' terms, which leave a sum
	// that starts at +0 unchanged, so it is the tilted path's λ.
	w := math.Exp((tilt-1)*p.total - float64(len(out))*math.Log(tilt))
	return out, w
}

// zeroTruncatedPoisson draws from a Poisson(lambda) conditioned on a
// nonzero outcome; expNeg must be math.Exp(-lambda) and p1, the
// truncated P(N=1 | N>=1), lambda/math.Expm1(lambda). Small lambdas —
// the rare-fault regime this sampler exists for — use exact inversion on
// the truncated pmf; large lambdas fall back to rejection, where the zero
// outcome is vanishingly rare and the expected number of redraws is
// 1/(1-e^{-λ}) ≈ 1.
func zeroTruncatedPoisson(rng *rand.Rand, lambda, expNeg, p1 float64) int {
	if lambda > 30 {
		for {
			if n := poisson(rng, lambda, expNeg); n > 0 {
				return n
			}
		}
	}
	u := rng.Float64()
	p := p1
	cdf := p
	k := 1
	for u > cdf {
		k++
		p *= lambda / float64(k)
		cdf += p
		if p == 0 {
			// Float underflow: the remaining mass is below representable
			// precision, so u can only be rounding error past the cdf.
			break
		}
	}
	return k
}
