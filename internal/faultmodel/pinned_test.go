package faultmodel

import (
	"math"
	"math/rand"
	"testing"
)

// bitDigest hashes a stream of float64s and ints by their exact bits
// (FNV-1a 64), so a pinned digest fails on any change in a sampled
// history, not only on changes large enough to move a statistic.
type bitDigest struct{ h uint64 }

func (d *bitDigest) u64(x uint64) {
	if d.h == 0 {
		d.h = 14695981039346656037 // FNV-1a 64 offset basis
	}
	for i := 0; i < 8; i++ {
		d.h ^= x & 0xff
		d.h *= 1099511628211 // FNV-1a 64 prime
		x >>= 8
	}
}

func (d *bitDigest) f64(x float64) { d.u64(math.Float64bits(x)) }

func (d *bitDigest) arrivals(as []Arrival) {
	d.u64(uint64(len(as)))
	for _, a := range as {
		d.f64(a.AtHours)
		d.u64(uint64(a.Type))
		d.u64(uint64(int64(a.Rank)))
		d.u64(uint64(a.Device))
	}
}

// TestSamplersPinnedDigests pins every sampler's exact output — arrival
// times, types, placements and weights — to digests recorded before the
// samplers were restructured around a prepared ArrivalProcess. The cases
// cover field rates, Poisson means past the normal-approximation and
// rejection thresholds, and rate tables with absent and zero-rate types.
func TestSamplersPinnedDigests(t *testing.T) {
	field := FieldStudyRates()
	partial := Rates{Bit: 10, Device: 0, Lane: 3, Bank: 0.5}
	cases := []struct {
		name         string
		rates        Rates
		ranks, devs  int
		years        float64
		draws        int
		plain, cond  uint64
		tilt2, tilt0 uint64
	}{
		{"field-2x36-7y", field, 2, 36, 7, 4000, 0x7d586b48353a6540, 0x6c6c7756f1c7262, 0x4b9ef1d9ef19d86a, 0x94a6f47230e2e6ad},
		{"field-2x18-5y", field, 2, 18, 5, 4000, 0x252921aebb46ad99, 0x342ef59b4377f1a4, 0x60df035caa344228, 0x1ab4ff2dac64a6c4},
		{"field1000-2x36-7y", field.Scale(1000), 2, 36, 7, 200, 0x2ce03ddc17d82028, 0xf0090d20fbcdec01, 0xe0942ef377a4a7a4, 0xe2e4b830776e8e7c},
		{"partial-1x9-3y", partial, 1, 9, 3, 4000, 0xba9b712ab7aa836d, 0x63aa792c28b9058e, 0x52d11e819dd1d8d4, 0xc47bf919579425a7},
	}
	for i, tc := range cases {
		var plain, cond, tilt2, tilt0 bitDigest
		rng := rand.New(rand.NewSource(int64(100 + i)))
		var buf []Arrival
		for k := 0; k < tc.draws; k++ {
			buf = sampleInto(rng, buf, tc.rates, tc.ranks, tc.devs, tc.years)
			plain.arrivals(buf)
		}
		for k := 0; k < tc.draws; k++ {
			var w float64
			buf, w = sampleConditionalInto(rng, buf, tc.rates, tc.ranks, tc.devs, tc.years)
			cond.arrivals(buf)
			cond.f64(w)
		}
		for k := 0; k < tc.draws; k++ {
			var w float64
			buf, w = sampleTiltedInto(rng, buf, tc.rates, 2.5, tc.ranks, tc.devs, tc.years)
			tilt2.arrivals(buf)
			tilt2.f64(w)
		}
		for k := 0; k < tc.draws; k++ {
			var w float64
			buf, w = sampleTiltedInto(rng, buf, tc.rates, 0.5, tc.ranks, tc.devs, tc.years)
			tilt0.arrivals(buf)
			tilt0.f64(w)
		}
		got := [4]uint64{plain.h, cond.h, tilt2.h, tilt0.h}
		want := [4]uint64{tc.plain, tc.cond, tc.tilt2, tc.tilt0}
		if got != want {
			t.Errorf("%s: digests (plain, conditional, tilt 2.5, tilt 0.5) = %#x, want %#x", tc.name, got, want)
		}
	}
}

func sampleInto(rng *rand.Rand, buf []Arrival, rates Rates, ranks, devs int, years float64) []Arrival {
	return SampleArrivalsInto(rng, buf, rates, ranks, devs, years)
}

func sampleConditionalInto(rng *rand.Rand, buf []Arrival, rates Rates, ranks, devs int, years float64) ([]Arrival, float64) {
	return SampleArrivalsConditionalInto(rng, buf, rates, ranks, devs, years)
}

func sampleTiltedInto(rng *rand.Rand, buf []Arrival, rates Rates, tilt float64, ranks, devs int, years float64) ([]Arrival, float64) {
	p := NewArrivalProcess(rates, ranks, devs, years)
	return p.SampleTiltedInto(rng, buf, tilt)
}
