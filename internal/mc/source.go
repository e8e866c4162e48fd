package mc

import "math/rand"

// shardSource is a reseedable rand.Source64 that reproduces math/rand's
// own source — the additive lagged-Fibonacci generator behind
// rand.NewSource — bit for bit. The engine keeps one per worker and
// reseeds it for every shard, where it used to allocate a fresh
// rand.NewSource (a 4.9 KB register) per shard. Seeding is the
// remaining fixed cost of a shard: math/rand fills the register from
// 1,841 serial Park–Miller steps x ← 48271·x mod (2³¹−1). Step k of the
// chain is seed·48271^k mod (2³¹−1), so shardSource multiplies the
// normalised seed by precomputed powers instead; the 1,821 products are
// independent of one another and each is reduced with two Mersenne
// folds, which is about three times faster than the serial chain.
type shardSource struct {
	tap, feed int
	vec       [rngLen]uint64
}

const (
	rngLen   = 607
	rngTap   = 273
	int32max = 1<<31 - 1 // the Park–Miller modulus 2³¹−1
	pmA      = 48271     // the Park–Miller multiplier
	// seedWarmup is the number of chain steps math/rand discards before
	// it fills the register three steps per word.
	seedWarmup = 20
)

var (
	// rngCooked is math/rand's table of 607 words XORed into a freshly
	// seeded register. It is not copied here: init recovers it from
	// rand.NewSource(1), whose first 607 outputs are a bijective image
	// of seed 1's register.
	rngCooked [rngLen]uint64
	// seedPow[j] = 48271^(seedWarmup+1+j) mod (2³¹−1): the chain step
	// that supplies the j-th third of the register.
	seedPow [3 * rngLen]uint32
)

func init() {
	p := uint64(1)
	for k := 1; k <= seedWarmup+3*rngLen; k++ {
		p = p * pmA % int32max
		if k > seedWarmup {
			seedPow[k-seedWarmup-1] = uint32(p)
		}
	}
	// Draw seed 1's first 607 outputs. Output k overwrites register word
	// feed_k with vec[feed_k]+vec[tap_k] and visits each word once, so
	// the final register is the outputs placed at their feed indices;
	// undoing the additions last-first restores the seeded register.
	src := rand.NewSource(1).(rand.Source64)
	var s shardSource
	s.tap, s.feed = 0, rngLen-rngTap
	var feeds, taps [rngLen]int
	for k := range feeds {
		s.step()
		feeds[k], taps[k] = s.feed, s.tap
		s.vec[s.feed] = src.Uint64()
	}
	for k := rngLen - 1; k >= 0; k-- {
		s.vec[feeds[k]] -= s.vec[taps[k]]
	}
	// The seeded register is rngCooked XOR seed 1's chain mask.
	var mask shardSource
	mask.Seed(1) // rngCooked is still zero, so this is the bare mask
	for i := range rngCooked {
		rngCooked[i] = s.vec[i] ^ mask.vec[i]
	}
}

// mulModM31 returns a·b mod (2³¹−1) for a, b < 2³¹.
func mulModM31(a, b uint64) uint64 {
	x := a * b                     // < 2⁶²
	x = (x & int32max) + (x >> 31) // < 2³²
	x = (x & int32max) + (x >> 31) // ≤ 2³¹
	if x >= int32max {
		x -= int32max
	}
	return x
}

// Seed puts the source in the state rand.NewSource(seed) starts in. The
// seed is normalised exactly as math/rand does: reduced mod 2³¹−1 (so
// seeds congruent mod 2³¹−1 give the same stream), negatives shifted
// into range, and 0 replaced by 89482311.
func (s *shardSource) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	x := uint64(seed)
	for i := range s.vec {
		u := mulModM31(x, uint64(seedPow[3*i])) << 40
		u ^= mulModM31(x, uint64(seedPow[3*i+1])) << 20
		u ^= mulModM31(x, uint64(seedPow[3*i+2]))
		s.vec[i] = u ^ rngCooked[i]
	}
}

// step advances the tap and feed indices by one output.
func (s *shardSource) step() {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
}

// Uint64 returns the next 64-bit output.
func (s *shardSource) Uint64() uint64 {
	s.step()
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 returns the next output with its top bit cleared.
func (s *shardSource) Int63() int64 {
	return int64(s.Uint64() &^ (1 << 63))
}
