package mc

import (
	"math"
	"math/rand"
	"testing"
)

// drawDigest folds one trial's draws of every math/rand method the
// repository's trials use into a running FNV-1a 64 hash.
func drawDigest(h uint64, rng *rand.Rand) uint64 {
	mix := func(x uint64) {
		for i := 0; i < 8; i++ {
			h ^= x & 0xff
			h *= 1099511628211
			x >>= 8
		}
	}
	for k := 0; k < 5; k++ {
		mix(math.Float64bits(rng.Float64()))
		mix(uint64(rng.Int63()))
		mix(rng.Uint64())
		mix(uint64(rng.Intn(1000)))
		mix(uint64(rng.Int63n(1 << 40)))
		mix(math.Float64bits(rng.NormFloat64()))
		mix(math.Float64bits(rng.ExpFloat64()))
	}
	return h
}

// TestEngineStreamsPinnedDigests pins the exact per-trial draws of the
// engine's shard streams to digests recorded when every shard still
// built its own rand.New(rand.NewSource(ShardSeed(seed, s))): the
// reseeded per-worker stream must reproduce them at any parallelism and
// shard size.
func TestEngineStreamsPinnedDigests(t *testing.T) {
	cases := []struct {
		seed int64
		size int
		n    int
		want uint64
	}{
		{1, 0, 1000, 0x94d9dbda89868a3f},
		{-7, 0, 777, 0xb4aac6268434d3b9},
		{math.MaxInt64, 13, 300, 0x1f47c3eb0b57df4f},
		{math.MinInt64, 1, 90, 0x80e9f3dc137da92f},
	}
	for _, tc := range cases {
		for _, par := range []int{1, 4} {
			vals := MapScratch(tc.n, tc.seed, Options{Parallelism: par, ShardSize: tc.size},
				func() struct{} { return struct{}{} },
				func(rng *rand.Rand, _ int, _ struct{}) uint64 { return drawDigest(14695981039346656037, rng) })
			h := uint64(14695981039346656037)
			for _, v := range vals {
				h = (h ^ v) * 1099511628211
			}
			if h != tc.want {
				t.Errorf("seed %d shard size %d n %d parallelism %d: digest %#x, want %#x", tc.seed, tc.size, tc.n, par, h, tc.want)
			}
		}
	}
}
