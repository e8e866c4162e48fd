package cache

import (
	"math/bits"
	"math/rand"
	"testing"
)

// refLLC is the array-of-structs LLC that LLC replaced, kept verbatim in
// behaviour as the oracle for the differential tests: a find scan per
// lookup, a second find plus a pickVictim scan per fill.
type refLLC struct {
	sets     [][]refWay
	numSets  uint64
	tagShift uint
	policy   Policy
	clock    int64
	tagReads int64

	hits, misses, writebacks int64
}

type refWay struct {
	tag      uint64
	valid    bool
	dirty    bool
	upgraded bool
	lastUse  int64
}

func newRef(sizeBytes, assoc int, policy Policy) *refLLC {
	numSets := sizeBytes / 64 / assoc
	sets := make([][]refWay, numSets)
	backing := make([]refWay, numSets*assoc)
	for i := range sets {
		sets[i], backing = backing[:assoc], backing[assoc:]
	}
	return &refLLC{
		sets:     sets,
		numSets:  uint64(numSets),
		tagShift: uint(bits.TrailingZeros64(uint64(numSets))),
		policy:   policy,
	}
}

func (c *refLLC) setIndex(addr uint64) uint64 { return addr & (c.numSets - 1) }
func (c *refLLC) tagOf(addr uint64) uint64    { return addr >> c.tagShift }

func (c *refLLC) find(addr uint64) *refWay {
	set := c.sets[c.setIndex(addr)]
	tag := c.tagOf(addr)
	c.tagReads++
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

func (c *refLLC) Access(addr uint64, write bool) bool {
	c.clock++
	if w := c.find(addr); w != nil {
		c.hits++
		w.lastUse = c.clock
		if write {
			w.dirty = true
		}
		return true
	}
	c.misses++
	return false
}

func (c *refLLC) InsertInto(addr uint64, upgraded, write bool, evs []Eviction) []Eviction {
	c.clock++
	if !upgraded {
		return c.insertOne(addr, false, write, evs)
	}
	lo, hi := addr&^uint64(1), addr|1
	evs = c.insertOne(lo, true, write && addr == lo, evs)
	evs = c.insertOne(hi, true, write && addr == hi, evs)
	return evs
}

func (c *refLLC) insertOne(addr uint64, upgraded, dirty bool, evs []Eviction) []Eviction {
	if w := c.find(addr); w != nil {
		w.lastUse = c.clock
		w.upgraded = w.upgraded || upgraded
		w.dirty = w.dirty || dirty
		return evs
	}
	set := c.sets[c.setIndex(addr)]
	victim := c.pickVictim(addr, set)
	if victim.valid {
		evs = c.evict(victim, c.setIndex(addr), evs)
	}
	*victim = refWay{tag: c.tagOf(addr), valid: true, dirty: dirty, upgraded: upgraded, lastUse: c.clock}
	return evs
}

func (c *refLLC) pickVictim(addr uint64, set []refWay) *refWay {
	for i := range set {
		if !set[i].valid {
			return &set[i]
		}
	}
	setIdx := c.setIndex(addr)
	best := 0
	bestRecency := int64(1<<62 - 1)
	for i := range set {
		rec := set[i].lastUse
		if c.policy == SharedRecency && set[i].upgraded {
			if p := c.partnerOf(&set[i], setIdx); p != nil {
				c.tagReads++
				if p.lastUse > rec {
					rec = p.lastUse
				}
			}
		}
		if rec < bestRecency {
			bestRecency = rec
			best = i
		}
	}
	return &set[best]
}

func (c *refLLC) partnerOf(w *refWay, setIdx uint64) *refWay {
	partner := (w.tag<<c.tagShift | setIdx) ^ 1
	set := c.sets[c.setIndex(partner)]
	tag := c.tagOf(partner)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			return &set[i]
		}
	}
	return nil
}

func (c *refLLC) evict(w *refWay, setIdx uint64, evs []Eviction) []Eviction {
	addr := w.tag<<c.tagShift | setIdx
	if !w.upgraded {
		if w.dirty {
			c.writebacks++
		}
		w.valid = false
		return append(evs, Eviction{Addr: addr, Dirty: w.dirty})
	}
	partnerAddr := addr ^ 1
	base := len(evs)
	evs = append(evs, Eviction{Addr: addr, Dirty: w.dirty, Upgraded: true, PairedWith: partnerAddr})
	if p := c.partnerOf(w, setIdx); p != nil {
		evs = append(evs, Eviction{Addr: partnerAddr, Dirty: p.dirty, Upgraded: true, PairedWith: addr})
		if w.dirty || p.dirty {
			evs[base].Dirty = true
			evs[base+1].Dirty = true
			c.writebacks += 2
		}
		p.valid = false
	} else if w.dirty {
		c.writebacks++
	}
	w.valid = false
	return evs
}

func (c *refLLC) Stats() (hits, misses, writebacks, tagReads int64) {
	return c.hits, c.misses, c.writebacks, c.tagReads
}

// diffGeometries are the cache shapes the differential tests cover:
// 2-way and 4-way with 64 sets, and the paper's 16-way associativity.
var diffGeometries = []struct{ size, assoc int }{
	{8 << 10, 2},
	{16 << 10, 4},
	{16 << 10, 16},
}

// checkAgainstReference drives an LLC and a refLLC of geometry g and policy
// with the operations ops encodes (three bytes each: a 16-bit address and
// a control byte) and fails at the first step whose Access result,
// eviction slice or Stats differ. Control bit 0 is the write flag, bit 1
// the upgraded flag, and bits 2-3 the kind: Access then InsertInto on a
// miss (0, 1), a bare Access (2), or an InsertInto without Access (3),
// which re-inserts resident lines and partners.
func checkAgainstReference(t *testing.T, g int, policy Policy, ops []byte) {
	t.Helper()
	geo := diffGeometries[g%len(diffGeometries)]
	c := New(geo.size, geo.assoc, policy)
	ref := newRef(geo.size, geo.assoc, policy)
	// Four times the capacity in lines keeps every set under pressure.
	addrs := uint64(4 * geo.size / 64)
	var got, want []Eviction
	for step := 0; step+3 <= len(ops); step += 3 {
		addr := (uint64(ops[step]) | uint64(ops[step+1])<<8) % addrs
		ctl := ops[step+2]
		write, upgraded, kind := ctl&1 != 0, ctl&2 != 0, ctl>>2&3
		insert := kind == 3
		if kind != 3 {
			hit := c.Access(addr, write)
			if refHit := ref.Access(addr, write); hit != refHit {
				t.Fatalf("step %d: Access(%d, %v) = %v, reference %v", step/3, addr, write, hit, refHit)
			}
			insert = !hit && kind != 2
		}
		if insert {
			got = c.InsertInto(addr, upgraded, write, got[:0])
			want = ref.InsertInto(addr, upgraded, write, want[:0])
			if len(got) != len(want) {
				t.Fatalf("step %d: InsertInto(%d, %v, %v) evicted %+v, reference %+v", step/3, addr, upgraded, write, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("step %d: InsertInto(%d, %v, %v) evicted %+v, reference %+v", step/3, addr, upgraded, write, got, want)
				}
			}
		}
		h, m, wb, tr := c.Stats()
		rh, rm, rwb, rtr := ref.Stats()
		if h != rh || m != rm || wb != rwb || tr != rtr {
			t.Fatalf("step %d: stats %d/%d/%d/%d, reference %d/%d/%d/%d", step/3, h, m, wb, tr, rh, rm, rwb, rtr)
		}
	}
}

// randomOps encodes n random operations for checkAgainstReference. About
// a third of the fills are upgraded, and a tenth of the steps insert
// without a preceding Access.
func randomOps(seed int64, n int) []byte {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]byte, 0, 3*n)
	for range n {
		a := rng.Intn(1 << 16)
		ctl := byte(rng.Intn(2))
		if rng.Intn(3) == 0 {
			ctl |= 2
		}
		switch r := rng.Intn(20); {
		case r < 2:
			ctl |= 3 << 2
		case r < 3:
			ctl |= 2 << 2
		}
		ops = append(ops, byte(a), byte(a>>8), ctl)
	}
	return ops
}

// TestLLCMatchesReference pins the struct-of-arrays LLC and its saved miss
// scan to the array-of-structs reference across both policies and every
// differential geometry.
func TestLLCMatchesReference(t *testing.T) {
	for g := range diffGeometries {
		for _, policy := range []Policy{SharedRecency, IndependentLRU} {
			checkAgainstReference(t, g, policy, randomOps(int64(10*g)+int64(policy), 40000))
		}
	}
}

// TestSavedScanVoidedByPartnerEviction pins the invalidation rule: an
// upgraded fill of an odd sub-line whose even twin's victim drags its
// partner out of the odd sub-line's set must not trust the scan Access
// saved for that set.
func TestSavedScanVoidedByPartnerEviction(t *testing.T) {
	for _, policy := range []Policy{SharedRecency, IndependentLRU} {
		// 8 KiB 2-way has 64 sets: {64, 65} pair across sets 0 and 1,
		// 128 fills set 0 and 129 fills set 1. Access(1) then misses on a
		// full set 1, and filling sub-line 0 evicts the pair {64, 65},
		// which frees a way in set 1 before sub-line 1 is placed.
		var ops []byte
		for _, op := range []struct {
			addr uint64
			ctl  byte
		}{{64, 2}, {128, 0}, {129, 0}, {1, 2}} {
			ops = append(ops, byte(op.addr), byte(op.addr>>8), op.ctl)
		}
		checkAgainstReference(t, 0, policy, ops)
	}
}

func FuzzLLCAgainstReference(f *testing.F) {
	for g := range diffGeometries {
		f.Add(uint8(g), false, randomOps(int64(g), 100))
		f.Add(uint8(g), true, randomOps(int64(g)+100, 100))
	}
	f.Add(uint8(0), false, []byte{64, 0, 2, 128, 0, 0, 129, 0, 0, 1, 0, 2})
	f.Fuzz(func(t *testing.T, g uint8, independent bool, ops []byte) {
		policy := SharedRecency
		if independent {
			policy = IndependentLRU
		}
		checkAgainstReference(t, int(g), policy, ops)
	})
}
