package mc

import (
	"math"
	"math/rand"
	"testing"
)

// TestShardSourceMatchesMathRand drives a reseeded shardSource and a
// fresh math/rand source side by side through every method the
// repository's trials call, over the seed normalisation's edge cases and
// a run of real shard seeds.
func TestShardSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, 89482311, int32max, -int32max, int32max + 1, 1 << 40, -(1 << 62),
		math.MaxInt64, math.MinInt64}
	for s := 0; s < 200; s++ {
		seeds = append(seeds, ShardSeed(int64(s%5)-2, s))
	}
	src := &shardSource{}
	got := rand.New(src)
	for _, seed := range seeds {
		got.Seed(seed)
		want := rand.New(rand.NewSource(seed))
		for i := 0; i < 3000; i++ {
			var g, w uint64
			switch i % 6 {
			case 0:
				g, w = got.Uint64(), want.Uint64()
			case 1:
				g, w = uint64(got.Int63()), uint64(want.Int63())
			case 2:
				g, w = math.Float64bits(got.Float64()), math.Float64bits(want.Float64())
			case 3:
				g, w = uint64(got.Intn(1+i)), uint64(want.Intn(1+i))
			case 4:
				g, w = math.Float64bits(got.ExpFloat64()), math.Float64bits(want.ExpFloat64())
			case 5:
				g, w = math.Float64bits(got.NormFloat64()), math.Float64bits(want.NormFloat64())
			}
			if g != w {
				t.Fatalf("seed %d draw %d (method %d): got %#x, want %#x", seed, i, i%6, g, w)
			}
		}
	}
}

// TestShardSourceReseedForgetsState checks that Seed fully resets the
// source: a stream reseeded mid-draw matches a fresh one.
func TestShardSourceReseedForgetsState(t *testing.T) {
	src := &shardSource{}
	src.Seed(3)
	for i := 0; i < 1000; i++ {
		src.Uint64()
	}
	src.Seed(4)
	want := rand.NewSource(4).(rand.Source64)
	for i := 0; i < 2000; i++ {
		if g, w := src.Uint64(), want.Uint64(); g != w {
			t.Fatalf("draw %d after reseed: got %#x, want %#x", i, g, w)
		}
	}
}

func BenchmarkShardSourceSeed(b *testing.B) {
	src := &shardSource{}
	for i := 0; i < b.N; i++ {
		src.Seed(ShardSeed(1, i))
	}
}

func BenchmarkMathRandNewSource(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rand.NewSource(ShardSeed(1, i))
	}
}

// TestRunAllocationsPerShard pins the engine's per-shard allocations to
// the job's own: a run of N shards allocates at most N × NewAcc's
// allocations plus a constant for the run and its workers. A per-shard
// RNG (rand.NewSource allocates a 4.9 KB register) breaks it.
func TestRunAllocationsPerShard(t *testing.T) {
	const shards = 64
	job := sumJob(shards*DefaultShardSize, 5)
	perAcc := testing.AllocsPerRun(100, func() { job.NewAcc() })
	for _, par := range []int{1, 2} {
		got := testing.AllocsPerRun(10, func() { Run(job, Options{Parallelism: par}) })
		if limit := shards*perAcc + 32; got > limit {
			t.Errorf("parallelism %d: %v allocations for %d shards, want at most %v", par, got, shards, limit)
		}
	}
}

// BenchmarkRunShardSetup measures the engine's per-shard overhead: one
// op is one shard of DefaultShardSize empty trials.
func BenchmarkRunShardSetup(b *testing.B) {
	job := Job{
		Trials: b.N * DefaultShardSize,
		Seed:   1,
		NewAcc: func() Accumulator { return &countAcc{} },
		Trial:  func(*rand.Rand, int, Accumulator) {},
	}
	b.ReportAllocs()
	Run(job, Options{Parallelism: 1})
}
