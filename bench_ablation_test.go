package arcc_test

import (
	"math/rand"
	"testing"

	"arcc/internal/cache"
	"arcc/internal/core"
	"arcc/internal/ecc"
	"arcc/internal/memctrl"
	"arcc/internal/rs"
	"arcc/internal/scrub"
)

// Ablation benchmarks for the design choices DESIGN.md calls out: the
// 4-step vs conventional scrubber, shared-recency vs independent LLC
// replacement, and raw codec throughput for the relaxed vs upgraded
// codeword geometries.

func BenchmarkAblationScrubFourStep(b *testing.B) {
	benchScrub(b, scrub.FourStep)
}

func BenchmarkAblationScrubConventional(b *testing.B) {
	benchScrub(b, scrub.Conventional)
}

func benchScrub(b *testing.B, algo scrub.Algorithm) {
	mem := core.New(core.Config{Pages: 16, RanksPerChannel: 2, BanksPerDevice: 8, RowsPerBank: 1})
	mem.RelaxAll()
	s := scrub.New(mem, algo)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.FullScrub()
	}
}

func BenchmarkAblationLLCSharedRecency(b *testing.B) {
	benchLLC(b, cache.SharedRecency)
}

func BenchmarkAblationLLCIndependentLRU(b *testing.B) {
	benchLLC(b, cache.IndependentLRU)
}

func benchLLC(b *testing.B, policy cache.Policy) {
	c := cache.New(1<<20, 16, policy)
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		if i > 0 && rng.Float64() < 0.7 {
			addrs[i] = addrs[i-1] + 1
		} else {
			addrs[i] = uint64(rng.Intn(1 << 22))
		}
	}
	var evs []cache.Eviction
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a := addrs[i%len(addrs)]
		if !c.Access(a, false) {
			evs = c.InsertInto(a, i%3 == 0, false, evs[:0])
		}
	}
}

func BenchmarkRelaxedEncode(b *testing.B) {
	benchEncode(b, ecc.NewRelaxed())
}

func BenchmarkUpgradedEncode(b *testing.B) {
	benchEncode(b, ecc.NewSCCDCD())
}

func benchEncode(b *testing.B, s ecc.Scheme) {
	data := make([]byte, s.DataSymbols())
	rand.New(rand.NewSource(1)).Read(data)
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Encode(data)
	}
}

func BenchmarkRelaxedDecodeClean(b *testing.B) {
	benchDecode(b, ecc.NewRelaxed(), false)
}

func BenchmarkRelaxedDecodeOneError(b *testing.B) {
	benchDecode(b, ecc.NewRelaxed(), true)
}

func BenchmarkUpgradedDecodeClean(b *testing.B) {
	benchDecode(b, ecc.NewSCCDCD(), false)
}

func BenchmarkUpgradedDecodeOneError(b *testing.B) {
	benchDecode(b, ecc.NewSCCDCD(), true)
}

func benchDecode(b *testing.B, s ecc.Scheme, inject bool) {
	data := make([]byte, s.DataSymbols())
	rand.New(rand.NewSource(1)).Read(data)
	cw := s.Encode(data)
	if inject {
		cw[3] ^= 0x5A
	}
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Decode(cw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkErasureDecode(b *testing.B) {
	code := rs.New(36, 32)
	data := make([]byte, 32)
	rand.New(rand.NewSource(1)).Read(data)
	cw := code.Encode(data)
	bad := make([]byte, len(cw))
	copy(bad, cw)
	bad[7] ^= 0xFF
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := code.DecodeErrorsErasures(bad, []int{7}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPageUpgrade(b *testing.B) {
	mem := core.New(core.Config{Pages: 4, RanksPerChannel: 1, BanksPerDevice: 2, RowsPerBank: 1})
	mem.RelaxAll()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mem.UpgradePage(0); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := mem.RelaxPage(0); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

func BenchmarkAblationPairingPromote(b *testing.B) {
	benchPairing(b, memctrl.PairPromote)
}

func BenchmarkAblationPairingFIFO(b *testing.B) {
	benchPairing(b, memctrl.PairFIFO)
}

func benchPairing(b *testing.B, p memctrl.Pairing) {
	cfg := memctrl.Config{
		Channels: 2, RanksPerChannel: 2, BanksPerRank: 8,
		Timing: memctrl.DDR2X8Timing(), DevicesPerAccess: 18, BurstBeats: 4,
		Pairing: p,
	}
	c := memctrl.New(cfg, nil)
	var now int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Mixed stream: some single-channel noise plus paired accesses.
		c.Access(now, i%2, i%16, false)
		done := c.AccessPaired(now, (i+5)%16, false)
		now = done - 10
		if now < 0 {
			now = 0
		}
	}
	b.ReportMetric(float64(c.LastCompletion())/float64(b.N), "cycles/op")
}

func BenchmarkEightCheckDecodeTwoErrors(b *testing.B) {
	s := ecc.NewEightCheck()
	data := make([]byte, s.DataSymbols())
	rand.New(rand.NewSource(1)).Read(data)
	cw := s.Encode(data)
	cw[3] ^= 0x5A
	cw[40] ^= 0xC3
	b.SetBytes(int64(len(data)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Decode(cw); err != nil {
			b.Fatal(err)
		}
	}
}
