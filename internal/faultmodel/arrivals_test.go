package faultmodel

import (
	"math/rand"
	"sort"
	"testing"
)

// TestSampleArrivalsIntoMatchesSampleArrivals pins the RNG-interchange
// contract: for identically seeded generators, the buffered and allocating
// samplers must produce identical histories draw for draw, so migrating a
// Monte Carlo loop onto SampleArrivalsInto cannot move any golden value.
func TestSampleArrivalsIntoMatchesSampleArrivals(t *testing.T) {
	rates := FieldStudyRates().Scale(50) // inflated so histories have events
	rngA := rand.New(rand.NewSource(3))
	rngB := rand.New(rand.NewSource(3))
	var buf []Arrival
	for trial := 0; trial < 200; trial++ {
		want := SampleArrivals(rngA, rates, 2, 36, 7)
		buf = SampleArrivalsInto(rngB, buf, rates, 2, 36, 7)
		if len(want) != len(buf) {
			t.Fatalf("trial %d: %d arrivals buffered, %d allocated", trial, len(buf), len(want))
		}
		for i := range want {
			if want[i] != buf[i] {
				t.Fatalf("trial %d arrival %d: %+v != %+v", trial, i, buf[i], want[i])
			}
		}
	}
}

func TestSampleArrivalsIntoSorted(t *testing.T) {
	rates := FieldStudyRates().Scale(500)
	rng := rand.New(rand.NewSource(4))
	var buf []Arrival
	for trial := 0; trial < 100; trial++ {
		buf = SampleArrivalsInto(rng, buf, rates, 2, 36, 7)
		if !sort.SliceIsSorted(buf, func(i, j int) bool { return buf[i].AtHours < buf[j].AtHours }) {
			t.Fatalf("trial %d: arrivals not sorted by time", trial)
		}
	}
}

func TestSampleArrivalsIntoReusesCapacity(t *testing.T) {
	rates := FieldStudyRates().Scale(50)
	rng := rand.New(rand.NewSource(5))
	buf := make([]Arrival, 0, 64)
	out := SampleArrivalsInto(rng, buf, rates, 2, 36, 7)
	if len(out) > 64 {
		t.Skip("draw outgrew the test buffer")
	}
	if cap(out) != cap(buf) || (len(out) > 0 && &out[0] != &buf[:1][0]) {
		t.Fatal("SampleArrivalsInto did not reuse the caller's buffer")
	}
}

// TestSampleArrivalsIntoZeroAllocations is the sampling half of the PR's
// allocation contract: with an adequate buffer the sampler never touches
// the heap.
func TestSampleArrivalsIntoZeroAllocations(t *testing.T) {
	rates := FieldStudyRates().Scale(50)
	rng := rand.New(rand.NewSource(6))
	buf := make([]Arrival, 0, 1024)
	allocs := testing.AllocsPerRun(200, func() {
		buf = SampleArrivalsInto(rng, buf[:0], rates, 2, 36, 7)
	})
	if allocs != 0 {
		t.Fatalf("SampleArrivalsInto: %v allocs/op, want 0", allocs)
	}
}

func TestArrivalCapHintCoversExpectation(t *testing.T) {
	rates := FieldStudyRates()
	exp := ExpectedArrivals(rates, 2, 36, 7)
	if exp <= 0 {
		t.Fatal("expected arrivals should be positive at field rates")
	}
	if hint := ArrivalCapHint(rates, 2, 36, 7); float64(hint) < exp {
		t.Fatalf("cap hint %d below expectation %v", hint, exp)
	}
}

func BenchmarkSampleArrivals(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	rates := FieldStudyRates().Scale(4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SampleArrivals(rng, rates, 2, 36, 7)
	}
}

func BenchmarkSampleArrivalsInto(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	rates := FieldStudyRates().Scale(4)
	var buf []Arrival
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = SampleArrivalsInto(rng, buf, rates, 2, 36, 7)
	}
}

// BenchmarkSampleArrivalsIntoPrepared is the plain sampler as the
// lifetime Monte Carlos call it: on a process prepared once, outside the
// loop.
func BenchmarkSampleArrivalsIntoPrepared(b *testing.B) {
	p := NewArrivalProcess(FieldStudyRates().Scale(4), 2, 36, 7)
	rng := rand.New(rand.NewSource(7))
	var buf []Arrival
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = p.SampleInto(rng, buf)
	}
}
