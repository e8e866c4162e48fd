package faultmodel

import (
	"math"
	"math/rand"
)

// Arrival is one fault event in a simulated channel lifetime.
type Arrival struct {
	// AtHours is the fault's arrival time in hours since power-on.
	AtHours float64
	// Type is the fault type.
	Type Type
	// Rank is the affected rank, or -1 for lane faults (which sit on the
	// channel's shared bus and affect every rank).
	Rank int
	// Device is the affected device within the rank (for lane faults, the
	// device *position* whose lane is broken, identical in every rank).
	Device int
}

// SampleArrivals draws the fault history of one channel over a lifespan:
// for each fault type, a Poisson-distributed number of faults with the
// type's FIT rate aggregated over all devices, placed uniformly in time and
// on uniformly chosen devices. Results are sorted by arrival time. The
// returned slice is freshly allocated, pre-sized to the expected arrival
// count; Monte Carlo loops should call SampleArrivalsInto with a reused
// buffer instead.
//
// Every experiment passes its own seeded rng, so lifetimes are reproducible.
func SampleArrivals(rng *rand.Rand, rates Rates, ranks, devicesPerRank int, years float64) []Arrival {
	if ranks <= 0 || devicesPerRank <= 0 || years < 0 {
		panic("faultmodel: invalid sampling parameters")
	}
	buf := make([]Arrival, 0, ArrivalCapHint(rates, ranks, devicesPerRank, years))
	return SampleArrivalsInto(rng, buf, rates, ranks, devicesPerRank, years)
}

// SampleArrivalsInto is SampleArrivals drawing into buf's capacity: buf's
// contents are ignored, its backing array is reused, and the filled,
// sorted slice is returned (reallocated only if the draw outgrows the
// capacity). With an adequately sized buffer — see ArrivalCapHint — the
// steady state performs zero heap allocations. The RNG consumption is
// identical to SampleArrivals, so the two are interchangeable mid-stream.
// Loops that sample one channel shape many times should prepare it once
// with NewArrivalProcess and call SampleInto.
func SampleArrivalsInto(rng *rand.Rand, buf []Arrival, rates Rates, ranks, devicesPerRank int, years float64) []Arrival {
	p := newArrivalProcess(rates, ranks, devicesPerRank, years)
	p.preparePlain()
	return p.SampleInto(rng, buf)
}

// ArrivalProcess is one channel's fault-arrival process prepared for
// repeated sampling: the per-type Poisson means and the exponentials the
// samplers need are computed once, not per draw. It is a plain value with
// fixed-size arrays, built without allocating; Monte Carlo calls build
// one per call and share it, read-only, across their workers. The plain
// path's means (rate·10⁻⁹·devices·hours) and the conditional and tilted
// paths' (rate·perDevice) are kept apart because the two products can
// round differently, and every recorded lifetime result depends on each.
type ArrivalProcess struct {
	ranks, devicesPerRank int
	hours                 float64

	// The samplers visit, in Types() order, the n types whose rate is
	// present and nonzero. plainMean is a type's Poisson mean as the
	// plain path computes it and plainExp its e^{-λ}; mean is the same
	// type's mean as the conditional and tilted paths compute it.
	n                         int
	types                     [numTypes]Type
	plainMean, plainExp, mean [numTypes]float64

	// total is the channel-aggregated mean λ of the conditional and
	// tilted paths; totalExp is e^{-λ}, totalP1 the zero-truncated
	// P(N=1) = λ/(e^λ−1), and condWeight the conditional likelihood
	// ratio 1−e^{-λ}.
	total, totalExp, totalP1, condWeight float64
}

// NewArrivalProcess prepares the arrival process of a channel of ranks
// ranks of devicesPerRank devices over years years at the given rates.
func NewArrivalProcess(rates Rates, ranks, devicesPerRank int, years float64) ArrivalProcess {
	p := newArrivalProcess(rates, ranks, devicesPerRank, years)
	p.preparePlain()
	p.prepareConditional()
	return p
}

// newArrivalProcess fills in the per-type means and the total only. The
// exponentials are added by preparePlain and prepareConditional, so a
// one-off free sampler computes just those its own path uses.
func newArrivalProcess(rates Rates, ranks, devicesPerRank int, years float64) ArrivalProcess {
	if ranks <= 0 || devicesPerRank <= 0 || years < 0 {
		panic("faultmodel: invalid sampling parameters")
	}
	hours := years * HoursPerYear
	p := ArrivalProcess{ranks: ranks, devicesPerRank: devicesPerRank, hours: hours}
	totalDevices := ranks * devicesPerRank
	perDevice := 1e-9 * float64(ranks*devicesPerRank) * hours
	for _, t := range Types() {
		rate, ok := rates[t] // rate is 0 when absent
		lt := rate * perDevice
		p.total += lt
		if ok && rate != 0 {
			p.types[p.n] = t
			p.plainMean[p.n] = rate * 1e-9 * float64(totalDevices) * hours
			p.mean[p.n] = lt
			p.n++
		}
	}
	return p
}

func (p *ArrivalProcess) preparePlain() {
	for i := 0; i < p.n; i++ {
		p.plainExp[i] = math.Exp(-p.plainMean[i])
	}
}

func (p *ArrivalProcess) prepareConditional() {
	p.totalExp = math.Exp(-p.total)
	p.totalP1 = p.total / math.Expm1(p.total)
	p.condWeight = -math.Expm1(-p.total) // 1 - e^{-λ}, accurate for small λ
}

// SampleInto draws one channel history into buf's capacity, exactly as
// SampleArrivalsInto does for the process's parameters.
func (p *ArrivalProcess) SampleInto(rng *rand.Rand, buf []Arrival) []Arrival {
	out := buf[:0]
	for i := 0; i < p.n; i++ {
		n := poisson(rng, p.plainMean[i], p.plainExp[i])
		for k := 0; k < n; k++ {
			out = append(out, p.arrival(rng, p.types[i]))
		}
	}
	sortArrivals(out)
	return out
}

// arrival places one fault of type t uniformly in time and on the
// channel's devices.
func (p *ArrivalProcess) arrival(rng *rand.Rand, t Type) Arrival {
	a := Arrival{
		AtHours: rng.Float64() * p.hours,
		Type:    t,
		Rank:    rng.Intn(p.ranks),
		Device:  rng.Intn(p.devicesPerRank),
	}
	if t == Lane {
		a.Rank = -1
	}
	return a
}

// ExpectedArrivals returns the mean of the total arrival count
// SampleArrivals draws: the sum over fault types of the channel-aggregated
// Poisson means.
func ExpectedArrivals(rates Rates, ranks, devicesPerRank int, years float64) float64 {
	hours := years * HoursPerYear
	total := float64(ranks * devicesPerRank)
	var sum float64
	for _, t := range Types() {
		sum += rates[t] * 1e-9 * total * hours
	}
	return sum
}

// ArrivalCapHint returns a buffer capacity for SampleArrivalsInto that
// covers the expected arrival count with slack for typical fluctuation, so
// reallocation in the sampling loop is rare.
func ArrivalCapHint(rates Rates, ranks, devicesPerRank int, years float64) int {
	return int(ExpectedArrivals(rates, ranks, devicesPerRank, years)) + 4
}

// sortArrivals orders arrivals by time using insertion sort: channel
// histories are a handful of events at field rates, where insertion sort
// beats the generic sort machinery, and the direct field comparison keeps
// the sampling path free of comparator closures and sort.Interface boxing.
func sortArrivals(out []Arrival) {
	for i := 1; i < len(out); i++ {
		a := out[i]
		j := i - 1
		for j >= 0 && out[j].AtHours > a.AtHours {
			out[j+1] = out[j]
			j--
		}
		out[j+1] = a
	}
}

// poisson draws from a Poisson distribution with mean lambda; expNeg
// must be math.Exp(-lambda). Knuth's method is exact and fast for the
// small lambdas (< 1) these simulations use; a normal approximation
// covers the large-lambda tail defensively.
func poisson(rng *rand.Rand, lambda, expNeg float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 100 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*rng.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	k, p := 0, 1.0
	for {
		p *= rng.Float64()
		if p <= expNeg {
			return k
		}
		k++
	}
}
