package cache

import (
	"math/rand"
	"testing"
)

func newSmall(policy Policy) *LLC {
	// 8 KB, 2-way: 64 sets — small enough to force evictions quickly.
	return New(8*1024, 2, policy)
}

// insert fills addr with a fresh eviction slice.
func insert(c *LLC, addr uint64, upgraded, write bool) []Eviction {
	return c.InsertInto(addr, upgraded, write, nil)
}

// contains reports residency without touching recency or statistics.
func contains(c *LLC, addr uint64) bool {
	return c.scan(addr, &missScan{}) >= 0
}

// hitRate returns hits / (hits + misses), or 0 before any access.
// setTags returns the stored tags (tag+1, 0 = invalid) of set setIdx.
func setTags(c *LLC, setIdx uint64) []uint64 {
	base := c.setBase(setIdx)
	tags := make([]uint64, c.assoc)
	for i, t := range c.ways[base : base+c.assoc] {
		tags[i] = t >> flagBits
	}
	return tags
}

func hitRate(c *LLC) float64 {
	hits, misses, _, _ := c.Stats()
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func TestNewPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"zero size":   func() { New(0, 2, SharedRecency) },
		"zero assoc":  func() { New(1024, 0, SharedRecency) },
		"indivisible": func() { New(64*3, 2, SharedRecency) },
		"one set":     func() { New(128, 2, SharedRecency) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMissThenHit(t *testing.T) {
	c := newSmall(SharedRecency)
	if c.Access(100, false) {
		t.Fatal("cold access hit")
	}
	insert(c, 100, false, false)
	if !c.Access(100, false) {
		t.Fatal("access after insert missed")
	}
	hits, misses, _, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats %d/%d", hits, misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := newSmall(SharedRecency) // 64 sets, 2 ways
	// Three addresses in the same set (stride = numSets).
	a, b, d := uint64(0), uint64(64), uint64(128)
	insert(c, a, false, false)
	insert(c, b, false, false)
	c.Access(a, false) // b becomes LRU
	ev := insert(c, d, false, false)
	if len(ev) != 1 || ev[0].Addr != b {
		t.Fatalf("evictions = %+v, want [b=64]", ev)
	}
	if !contains(c, a) || contains(c, b) || !contains(c, d) {
		t.Fatal("wrong resident set after eviction")
	}
}

func TestDirtyEvictionCountsWriteback(t *testing.T) {
	c := newSmall(SharedRecency)
	insert(c, 0, false, true) // dirty
	insert(c, 64, false, false)
	ev := insert(c, 128, false, false) // evicts 0 (LRU)
	if len(ev) != 1 || !ev[0].Dirty {
		t.Fatalf("evictions = %+v, want dirty eviction of 0", ev)
	}
	_, _, wb, _ := c.Stats()
	if wb != 1 {
		t.Fatalf("writebacks = %d, want 1", wb)
	}
}

func TestUpgradedInsertBringsBothSubLines(t *testing.T) {
	c := newSmall(SharedRecency)
	insert(c, 10, true, false)
	if !contains(c, 10) || !contains(c, 11) {
		t.Fatal("upgraded insert must fill both sub-lines")
	}
	// Sub-lines land in adjacent sets.
	if c.setIndex(10) == c.setIndex(11) {
		t.Fatal("sub-lines should map to different (adjacent) sets")
	}
}

func TestUpgradedPairEvictsTogether(t *testing.T) {
	c := newSmall(SharedRecency)
	insert(c, 10, true, true) // pair {10, 11}, 10 dirty
	// Force eviction of 10 by filling its set (set index 10, 2 ways) with
	// same-set addresses; collect evictions across all inserts.
	var ev []Eviction
	for _, a := range []uint64{10 + 64, 10 + 128, 10 + 192} {
		ev = append(ev, insert(c, a, false, false)...)
	}
	var sawPair int
	for _, e := range ev {
		if e.Addr == 10 || e.Addr == 11 {
			sawPair++
			if !e.Upgraded {
				t.Fatal("pair eviction not flagged upgraded")
			}
			if !e.Dirty {
				t.Fatal("either-dirty must force both sub-lines to write back dirty")
			}
		}
	}
	if sawPair != 2 {
		t.Fatalf("evicting one sub-line evicted %d pair members, want 2 (%+v)", sawPair, ev)
	}
	if contains(c, 11) {
		t.Fatal("partner sub-line still resident after pair eviction")
	}
}

func TestSharedRecencyProtectsPartner(t *testing.T) {
	// Pair {0, 1}; only sub-line 1 is reused. Under SharedRecency the
	// reuse of 1 must protect 0 from eviction.
	c := newSmall(SharedRecency)
	insert(c, 0, true, false) // pair {0,1}: 0 in set 0, 1 in set 1
	insert(c, 64, false, false)
	c.Access(1, false)                 // refresh partner's recency
	c.Access(64, false)                // refresh competitor too... make 64 newer than 0's own use
	c.Access(1, false)                 // partner newest overall
	ev := insert(c, 128, false, false) // set 0 is full: {0, 64}
	if len(ev) != 1 {
		t.Fatalf("evictions %+v", ev)
	}
	if ev[0].Addr != 64 {
		t.Fatalf("evicted %d, want 64: shared recency should protect sub-line 0", ev[0].Addr)
	}
}

func TestIndependentLRUDoesNotProtectPartner(t *testing.T) {
	c := newSmall(IndependentLRU)
	insert(c, 0, true, false)
	insert(c, 64, false, false)
	c.Access(1, false)
	c.Access(64, false)
	c.Access(1, false)
	ev := insert(c, 128, false, false)
	// Under independent LRU, sub-line 0's own recency is oldest, so the
	// pair gets evicted despite partner reuse.
	found := false
	for _, e := range ev {
		if e.Addr == 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("independent LRU should evict sub-line 0 (evictions %+v)", ev)
	}
}

func TestPartnerReinsertIsIdempotent(t *testing.T) {
	c := newSmall(SharedRecency)
	insert(c, 20, true, false)
	insert(c, 21, true, true) // partner already resident; must not duplicate
	if !contains(c, 20) || !contains(c, 21) {
		t.Fatal("pair should be resident")
	}
	// Count resident copies of 21's tag in its set.
	n := 0
	for _, tag := range setTags(c, c.setIndex(21)) {
		if tag == c.tagOf(21)+1 {
			n++
		}
	}
	if n != 1 {
		t.Fatalf("%d copies of line 21 resident, want 1", n)
	}
}

func TestWriteMarksOnlyRequestedSubLineDirty(t *testing.T) {
	c := newSmall(SharedRecency)
	insert(c, 30, true, true) // write to even sub-line
	// Evict the pair and check dirtiness: 30 dirty, and pair write-back
	// policy promotes both to dirty together.
	insert(c, 30+64, false, false)
	insert(c, 30+128, false, false)
	ev := insert(c, 30+192, false, false)
	for _, e := range ev {
		if (e.Addr == 30 || e.Addr == 31) && !e.Dirty {
			t.Fatalf("pair member %d not dirty on paired write-back", e.Addr)
		}
	}
}

func TestTagReadsCountedForSharedRecency(t *testing.T) {
	c := newSmall(SharedRecency)
	insert(c, 0, true, false)
	insert(c, 64, false, false)
	_, _, _, before := c.Stats()
	insert(c, 128, false, false) // replacement in set 0 examines partner tag
	_, _, _, after := c.Stats()
	if after <= before {
		t.Fatal("replacement did not record extra tag reads")
	}
}

func TestHitRate(t *testing.T) {
	c := newSmall(SharedRecency)
	if hitRate(c) != 0 {
		t.Fatal("hit rate before any access")
	}
	insert(c, 5, false, false)
	c.Access(5, false)
	c.Access(6, false)
	if got := hitRate(c); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
}

func TestRandomizedInvariantNoDuplicateResidency(t *testing.T) {
	c := New(16*1024, 4, SharedRecency)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50000; i++ {
		addr := uint64(rng.Intn(4096))
		upgraded := rng.Intn(3) == 0
		write := rng.Intn(2) == 0
		if !c.Access(addr, write) {
			insert(c, addr, upgraded, write)
		}
	}
	// Invariant: no tag appears twice in a set.
	for si := uint64(0); si < c.numSets; si++ {
		seen := map[uint64]bool{}
		for _, tag := range setTags(c, si) {
			if tag == 0 {
				continue
			}
			if seen[tag] {
				t.Fatalf("set %d holds duplicate tag %d", si, tag-1)
			}
			seen[tag] = true
		}
	}
}

func TestSpatialWorkloadBenefitsFromUpgradedPrefetch(t *testing.T) {
	// With strong spatial locality, inserting 128 B pairs should raise the
	// hit rate versus 64 B fills — the "useful prefetch" effect of §7.2.
	run := func(upgraded bool) float64 {
		c := New(64*1024, 8, SharedRecency)
		rng := rand.New(rand.NewSource(2))
		addr := uint64(0)
		for i := 0; i < 200000; i++ {
			if rng.Float64() < 0.8 {
				addr++
			} else {
				addr = uint64(rng.Intn(1 << 20))
			}
			if !c.Access(addr, false) {
				insert(c, addr, upgraded, false)
			}
		}
		return hitRate(c)
	}
	relaxed, upgraded := run(false), run(true)
	if upgraded <= relaxed {
		t.Fatalf("upgraded-line prefetch did not help a sequential workload: %v <= %v", upgraded, relaxed)
	}
}

// TestInsertIntoMatchesInsert pins the scratch use of InsertInto to the
// allocating one: the same access/insert sequence driven with a reused
// eviction buffer and with a fresh slice per fill produces identical
// evictions and statistics.
func TestInsertIntoMatchesInsert(t *testing.T) {
	for _, policy := range []Policy{SharedRecency, IndependentLRU} {
		fresh := newSmall(policy)
		scratch := newSmall(policy)
		rng := rand.New(rand.NewSource(7))
		var evs []Eviction
		for i := 0; i < 20000; i++ {
			addr := uint64(rng.Intn(512))
			write := rng.Intn(3) == 0
			upgraded := rng.Intn(3) == 0
			if fresh.Access(addr, write) != scratch.Access(addr, write) {
				t.Fatalf("policy %v: access %d diverged", policy, i)
			}
			if contains(fresh, addr) {
				continue
			}
			want := insert(fresh, addr, upgraded, write)
			evs = scratch.InsertInto(addr, upgraded, write, evs[:0])
			if len(want) != len(evs) {
				t.Fatalf("policy %v: insert %d: %d evictions vs %d", policy, i, len(evs), len(want))
			}
			for j := range want {
				if want[j] != evs[j] {
					t.Fatalf("policy %v: insert %d eviction %d: %+v vs %+v", policy, i, j, evs[j], want[j])
				}
			}
		}
		fh, fm, fw, ft := fresh.Stats()
		sh, sm, sw, st := scratch.Stats()
		if fh != sh || fm != sm || fw != sw || ft != st {
			t.Fatalf("policy %v: stats diverged: %d/%d/%d/%d vs %d/%d/%d/%d", policy, sh, sm, sw, st, fh, fm, fw, ft)
		}
	}
}

// TestAccessInsertAllocationFree pins the steady-state LLC hot path to zero
// heap allocations: lookups, and fills through InsertInto with a reused
// eviction scratch.
func TestAccessInsertAllocationFree(t *testing.T) {
	c := newSmall(SharedRecency)
	evs := make([]Eviction, 0, 4)
	addr := uint64(0)
	fill := func() {
		a := addr % 4096
		if !c.Access(a, addr%5 == 0) {
			evs = c.InsertInto(a, addr%3 == 0, addr%5 == 0, evs[:0])
		}
		addr += 17
	}
	for i := 0; i < 1000; i++ {
		fill() // populate so the measured runs evict constantly
	}
	if allocs := testing.AllocsPerRun(2000, fill); allocs != 0 {
		t.Errorf("Access+InsertInto: %v allocs/op, want 0", allocs)
	}
}

// TestReset pins that a reset cache behaves exactly like a fresh one.
func TestReset(t *testing.T) {
	used := newSmall(SharedRecency)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		a := uint64(rng.Intn(512))
		if !used.Access(a, i%4 == 0) {
			insert(used, a, i%2 == 0, i%4 == 0)
		}
	}
	used.Reset()
	fresh := newSmall(SharedRecency)
	rng = rand.New(rand.NewSource(10))
	for i := 0; i < 5000; i++ {
		a := uint64(rng.Intn(512))
		w := i%4 == 0
		if used.Access(a, w) != fresh.Access(a, w) {
			t.Fatalf("access %d diverged after Reset", i)
		}
		if !contains(fresh, a) {
			wantEv := insert(fresh, a, i%2 == 0, w)
			gotEv := insert(used, a, i%2 == 0, w)
			if len(wantEv) != len(gotEv) {
				t.Fatalf("insert %d diverged after Reset", i)
			}
		}
	}
	uh, um, uw, ut := used.Stats()
	fh, fm, fw, ft := fresh.Stats()
	if uh != fh || um != fm || uw != fw || ut != ft {
		t.Fatalf("stats diverged after Reset: %d/%d/%d/%d vs %d/%d/%d/%d", uh, um, uw, ut, fh, fm, fw, ft)
	}
}
