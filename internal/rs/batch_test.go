package rs

import (
	"bytes"
	"math/rand"
	"testing"
)

// batchCodes are the geometries the batch path is exercised on: the three
// ARCC codeword shapes plus a deliberately odd one (stride tails, nk
// outside the 2/4 specialisations).
func batchCodes() []*Code {
	return []*Code{New(18, 16), New(36, 32), New(72, 64), New(255, 223), New(20, 15)}
}

// buildBatch returns count random valid codewords, flat at the given
// stride, plus slices aliasing each codeword in the flat buffer. Gap bytes between codewords
// are filled with junk to catch kernels that read past N.
func buildBatch(r *rand.Rand, c *Code, count, stride int) (flat []byte, cws [][]byte) {
	flat = make([]byte, count*stride+7) // +junk tail beyond the last codeword
	r.Read(flat)
	cws = make([][]byte, count)
	for i := 0; i < count; i++ {
		cw := flat[i*stride : i*stride+c.N()]
		r.Read(cw[:c.K()])
		c.EncodeInto(cw)
		cws[i] = cw
	}
	return flat, cws
}

// corrupt flips nbad distinct random symbols of cw.
func corruptLanes(r *rand.Rand, cw []byte, nbad int) {
	for _, pos := range r.Perm(len(cw))[:nbad] {
		cw[pos] ^= byte(1 + r.Intn(255))
	}
}

// TestSyndromesAndCheckBatchMatchScalar pins the word-parallel syndrome
// kernel behind the batch decoders to the scalar SyndromesInto, lane by
// lane, and its dirty word to the per-lane all-zero check.
func TestSyndromesAndCheckBatchMatchScalar(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, c := range batchCodes() {
		nk := c.CheckSymbols()
		for _, count := range []int{0, 1, 3, 8, 11, 17} {
			stride := c.N() + r.Intn(5)
			flat, cws := buildBatch(r, c, count, stride)
			// Corrupt a few lanes so both clean and dirty lanes appear.
			for i := range cws {
				if i%3 == 1 {
					corruptLanes(r, cws[i], 1+r.Intn(3))
				}
			}
			want := make([]byte, nk)
			sw := make([]uint64, nk)
			for base := 0; base < count; base += 8 {
				lanes := min(8, count-base)
				dirty := c.synWords(flat[base*stride:], stride, lanes, sw)
				for l := 0; l < lanes; l++ {
					c.SyndromesInto(cws[base+l], want)
					for i := range want {
						if got := byte(sw[i] >> (8 * l)); got != want[i] {
							t.Fatalf("(%d,%d) count=%d stride=%d codeword %d: syndrome %d = %#x, want %#x",
								c.N(), c.K(), count, stride, base+l, i, got, want[i])
						}
					}
					if clean := byte(dirty>>(8*l)) == 0; clean != allZero(want) {
						t.Fatalf("(%d,%d) codeword %d: batch clean = %v, scalar clean = %v", c.N(), c.K(), base+l, clean, allZero(want))
					}
				}
				if lanes < 8 && dirty>>(8*lanes) != 0 {
					t.Fatalf("(%d,%d) count=%d: lanes past the batch reported dirty", c.N(), c.K(), count)
				}
			}
		}
	}
}

// decodeScalarReference applies the per-codeword scalar decoder with the
// batch path's in-place semantics: corrected lanes rewritten, DUE lanes
// left raw and listed.
func decodeScalarReference(c *Code, cws [][]byte, maxErrors int) (BatchResult, [][]byte) {
	s := c.NewScratch()
	var res BatchResult
	out := make([][]byte, len(cws))
	for i, cw := range cws {
		out[i] = append([]byte(nil), cw...)
		r, err := c.DecodeScratch(cw, maxErrors, s)
		if err != nil {
			res.Bad = append(res.Bad, i)
			continue
		}
		copy(out[i], r.Corrected)
		res.Corrected += len(r.ErrorPositions)
	}
	return res, out
}

func TestDecodeBatchMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, c := range batchCodes() {
		maxFix := c.MaxCorrectable()
		for _, count := range []int{0, 1, 2, 8, 9, 13, 20} {
			for trial := 0; trial < 8; trial++ {
				stride := c.N() + r.Intn(4)
				flat, cws := buildBatch(r, c, count, stride)
				// Random per-lane corruption: clean, correctable, and
				// overwhelming patterns mixed in one batch.
				for i := range cws {
					switch r.Intn(4) {
					case 1:
						corruptLanes(r, cws[i], 1+r.Intn(max(maxFix, 1)))
					case 2:
						corruptLanes(r, cws[i], maxFix+1+r.Intn(3))
					}
				}
				snapshot := make([][]byte, count)
				for i, cw := range cws {
					snapshot[i] = append([]byte(nil), cw...)
				}
				wantRes, wantOut := decodeScalarReference(c, snapshot, maxFix)

				s := c.NewScratch()
				gotRes := c.DecodeBatchFlat(flat, stride, count, maxFix, s)
				if gotRes.Corrected != wantRes.Corrected || !equalInts(gotRes.Bad, wantRes.Bad) {
					t.Fatalf("(%d,%d) DecodeBatchFlat count=%d: result %+v, want %+v", c.N(), c.K(), count, gotRes, wantRes)
				}
				for i, cw := range cws {
					if !bytes.Equal(cw, wantOut[i]) {
						t.Fatalf("(%d,%d) DecodeBatchFlat count=%d: codeword %d content mismatch", c.N(), c.K(), count, i)
					}
				}
			}
		}
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDecodeBatchMaxErrorsZero pins the detect-only policy through the
// batch path: any dirty lane is a DUE.
func TestDecodeBatchMaxErrorsZero(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	c := New(36, 32)
	flat, cws := buildBatch(r, c, 8, c.N())
	corruptLanes(r, cws[5], 1)
	s := c.NewScratch()
	res := c.DecodeBatchFlat(flat, c.N(), 8, 0, s)
	if res.Corrected != 0 || !equalInts(res.Bad, []int{5}) {
		t.Fatalf("detect-only batch: %+v, want Bad=[5]", res)
	}
}

// TestDecodeErasuresFastPathMatchesErrors pins the pure-erasure fast path
// (skipped Chien search) against the errors+erasures general path and
// against re-encoding.
func TestDecodeErasuresFastPathMatchesErrors(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	c := New(36, 32)
	s := c.NewScratch()
	for trial := 0; trial < 500; trial++ {
		cw := make([]byte, c.N())
		r.Read(cw[:c.K()])
		c.EncodeInto(cw)
		orig := append([]byte(nil), cw...)
		ne := r.Intn(c.CheckSymbols() + 1)
		erasures := r.Perm(c.N())[:ne]
		for _, p := range erasures {
			cw[p] ^= byte(r.Intn(256)) // may be a zero flip: erased-but-right
		}
		res, err := c.DecodeErrorsErasuresScratch(cw, erasures, 0, s)
		if err != nil {
			t.Fatalf("trial %d: erasure decode failed: %v (erasures %v)", trial, err, erasures)
		}
		if !bytes.Equal(res.Corrected, orig) {
			t.Fatalf("trial %d: erasure decode content mismatch", trial)
		}
		// Positions must be ascending and exactly the flipped symbols.
		for i := 1; i < len(res.ErrorPositions); i++ {
			if res.ErrorPositions[i-1] >= res.ErrorPositions[i] {
				t.Fatalf("trial %d: positions not ascending: %v", trial, res.ErrorPositions)
			}
		}
		for _, p := range res.ErrorPositions {
			if cw[p] == orig[p] {
				t.Fatalf("trial %d: position %d reported but unchanged", trial, p)
			}
		}
	}
}

// TestBatchAllocs pins the zero-allocation contract of both batch
// decoders, clean and dirty, after a single warm-up call (the Bad buffer
// may grow once).
func TestBatchAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	c := New(36, 32)
	const count = 13
	flat, cws := buildBatch(r, c, count, c.N())
	corruptLanes(r, cws[3], 2)
	corruptLanes(r, cws[9], c.CheckSymbols()+2) // a DUE lane
	pristine := append([]byte(nil), flat...)
	s := c.NewScratch()
	erasures := []int{5}

	c.DecodeBatchFlat(flat, c.N(), count, c.MaxCorrectable(), s) // warm up s.bad
	copy(flat, pristine)

	cases := []struct {
		name string
		fn   func()
	}{
		{"DecodeBatchFlat", func() {
			copy(flat, pristine)
			c.DecodeBatchFlat(flat, c.N(), count, c.MaxCorrectable(), s)
		}},
		{"DecodeErrorsErasuresBatchFlat", func() {
			copy(flat, pristine)
			c.DecodeErrorsErasuresBatchFlat(flat, c.N(), count, erasures, 1, s)
		}},
	}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(50, tc.fn); n != 0 {
			t.Errorf("%s allocates %v per run, want 0", tc.name, n)
		}
	}
}

// FuzzDecodeBatchEquivalence feeds arbitrary bytes as a batch buffer and
// cross-checks the batch decoder against the scalar decoder lane by lane.
func FuzzDecodeBatchEquivalence(f *testing.F) {
	f.Add([]byte{0}, uint8(3), uint8(2))
	f.Add(bytes.Repeat([]byte{0xA5}, 200), uint8(9), uint8(1))
	f.Add(bytes.Repeat([]byte{7}, 500), uint8(16), uint8(2))
	c := New(36, 32)
	f.Fuzz(func(t *testing.T, raw []byte, countIn, maxErrIn uint8) {
		count := int(countIn) % 17
		maxErrors := int(maxErrIn) % (c.MaxCorrectable() + 1)
		need := count * c.N()
		flat := make([]byte, need)
		copy(flat, raw)
		// Re-encode alternating lanes so clean lanes are represented even
		// in random fuzz input.
		for i := 0; i < count; i += 2 {
			c.EncodeInto(flat[i*c.N() : (i+1)*c.N()])
		}
		cws := make([][]byte, count)
		for i := range cws {
			cws[i] = append([]byte(nil), flat[i*c.N():(i+1)*c.N()]...)
		}
		wantRes, wantOut := decodeScalarReference(c, cws, maxErrors)
		s := c.NewScratch()
		gotRes := c.DecodeBatchFlat(flat, c.N(), count, maxErrors, s)
		if gotRes.Corrected != wantRes.Corrected || !equalInts(gotRes.Bad, wantRes.Bad) {
			t.Fatalf("batch result %+v, want %+v", gotRes, wantRes)
		}
		for i := 0; i < count; i++ {
			if !bytes.Equal(flat[i*c.N():(i+1)*c.N()], wantOut[i]) {
				t.Fatalf("lane %d content mismatch", i)
			}
		}
	})
}
