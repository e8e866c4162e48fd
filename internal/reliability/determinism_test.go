package reliability

import (
	"context"
	"runtime"
	"testing"

	"arcc/internal/faultmodel"
	"arcc/internal/mc"
)

// The engine contract: for a fixed seed, every reliability Monte Carlo
// must produce bit-identical output at any parallelism. Serial
// (parallelism 1) is the reference.
func TestReliabilityDeterministicAcrossParallelism(t *testing.T) {
	shape := faultmodel.ARCCChannelShape()
	rates := faultmodel.FieldStudyRates().Scale(100)
	ov := WorstCaseOverheads(shape, 2)
	inflated := DefaultParams()
	inflated.Rates = inflated.Rates.Scale(3000)
	inflated.LifeYears = 1

	cases := []struct {
		name string
		run  func(opts mc.Options) []float64
	}{
		{"FaultyPageFractionCtx", func(opts mc.Options) []float64 {
			return must(FaultyPageFractionCtx(context.Background(), 11, opts, rates, shape, 2, 36, 5, 700))
		}},
		{"LifetimeOverheadCtx", func(opts mc.Options) []float64 {
			return must(LifetimeOverheadCtx(context.Background(), 12, opts, rates, 2, 36, 5, 700, ov, 1.0))
		}},
		{"SimulateARCCDEDCtx", func(opts mc.Options) []float64 {
			return []float64{float64(must(SimulateARCCDEDCtx(context.Background(), 13, opts, inflated, 700)))}
		}},
	}
	parallelisms := []int{1, 4, runtime.NumCPU()}
	for _, tc := range cases {
		want := tc.run(mc.Options{Parallelism: 1})
		for _, par := range parallelisms {
			got := tc.run(mc.Options{Parallelism: par})
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s: parallelism %d year %d = %v, want bit-identical %v",
						tc.name, par, i+1, got[i], want[i])
				}
			}
		}
	}
}

// benchOverheadRun executes the Fig 7.4 worst-case Monte Carlo once, at a
// volume large enough for the worker pool to matter.
func benchOverheadRun(opts mc.Options) []float64 {
	shape := faultmodel.ARCCChannelShape()
	rates := faultmodel.FieldStudyRates().Scale(4)
	ov := WorstCaseOverheads(shape, 2)
	return must(LifetimeOverheadCtx(context.Background(), 1, opts, rates, 2, 36, 7, 20000, ov, 1.0))
}

func BenchmarkLifetimeOverheadSerial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		benchOverheadRun(mc.Options{Parallelism: 1})
	}
}

// BenchmarkLifetimeOverheadParallel is the acceptance benchmark for the
// sharded engine: 8 workers over the same shard structure as the serial
// run. On a machine with >= 8 cores it runs >= 3x faster than
// BenchmarkLifetimeOverheadSerial while producing bit-identical output
// (asserted here, not just in the unit tests).
func BenchmarkLifetimeOverheadParallel(b *testing.B) {
	var got []float64
	for i := 0; i < b.N; i++ {
		got = benchOverheadRun(mc.Options{Parallelism: 8})
	}
	b.StopTimer()
	want := benchOverheadRun(mc.Options{Parallelism: 1})
	for i := range want {
		if got[i] != want[i] {
			b.Fatalf("parallel output diverged from serial at year %d: %v != %v", i+1, got[i], want[i])
		}
	}
}
