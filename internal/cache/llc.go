// Package cache models the last-level cache with ARCC's modifications
// (§4.2.3): 64 B cachelines plus an upgraded-line tag bit; the two 64 B
// sub-lines of a 128 B upgraded line live in adjacent sets (their physical
// addresses are consecutive), are written back to memory *together* so all
// four check symbols per codeword stay consistent, and share a recency value
// so one sub-line's reuse keeps both resident.
package cache

import (
	"fmt"
	"math"
	"math/bits"
)

// Line address convention: a cacheline is identified by its 64 B line index
// (byte address / 64). The partner sub-line of an upgraded line at address a
// is a^1 — the adjacent line, which maps to the adjacent set.

// Eviction describes one line pushed out of the cache.
type Eviction struct {
	Addr     uint64
	Dirty    bool
	Upgraded bool
	// PairedWith is the partner address written back together with this
	// line when it belongs to an upgraded pair (valid when Upgraded).
	PairedWith uint64
}

// Policy selects how upgraded pairs are treated by replacement.
type Policy int

const (
	// SharedRecency is the paper's design: a sub-line's replacement
	// recency is the max of both sub-lines' recencies, and evicting one
	// sub-line evicts (and pairs the write-back of) the other.
	SharedRecency Policy = iota
	// IndependentLRU treats sub-lines as unrelated lines except that
	// eviction of a dirty sub-line still drags its partner out for the
	// paired write-back. Kept for the ablation benchmarks.
	IndependentLRU
)

// Flag bits held in the low bits of a way's tag word.
const (
	flagDirty uint64 = 1 << iota
	flagUpgraded
	flagBits = 2
)

// LLC is a set-associative write-back, write-allocate cache. Its ways are
// stored struct-of-arrays within one flat slice: set s owns the block
// ways[s*2*assoc:], which holds the set's assoc tag words followed by its
// assoc recency words, so a lookup walks 8 bytes per way and a set's tags
// and recencies sit side by side. A tag word is (tag+1)<<flagBits | flags,
// and 0 marks an invalid way. Line addresses are byte addresses / 64, so
// below 2^58, and the shifted tag never overflows.
type LLC struct {
	ways     []uint64
	numSets  uint64
	tagShift uint // log2(numSets); addr = tag<<tagShift | setIndex
	assoc    int
	policy   Policy
	clock    int64
	tagReads int64

	hits, misses, writebacks int64

	// miss is the set scan of the last missing Access, saved for the
	// InsertInto that follows it so the fill does not walk the set again.
	miss missScan
}

// missScan is what one pass over a set learnt on a miss. It describes
// the set only as long as nothing in it changes: insertOne trusts it when
// at equals the clock (the one tick after the Access that saved it) and
// addr matches, and evict voids it whenever it drops an upgraded partner,
// since that partner may live in the very set the scan describes.
type missScan struct {
	addr     uint64
	at       int64 // clock of the InsertInto the scan serves; 0 = none
	free     int   // first invalid way, or -1 when the set is full
	lru      int   // valid way with the oldest own recency
	upgraded bool  // some valid way holds an upgraded sub-line
}

// New builds an LLC of sizeBytes with the given associativity and 64 B
// lines. Table 7.2's L2 is 1 MB, 16-way.
func New(sizeBytes, assoc int, policy Policy) *LLC {
	if sizeBytes <= 0 || assoc <= 0 {
		panic(fmt.Sprintf("cache: invalid size %d / assoc %d", sizeBytes, assoc))
	}
	lines := sizeBytes / 64
	if lines%assoc != 0 {
		panic(fmt.Sprintf("cache: %d lines not divisible by associativity %d", lines, assoc))
	}
	numSets := lines / assoc
	if numSets < 2 {
		panic("cache: need at least 2 sets for paired sub-lines")
	}
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache: set count %d must be a power of two", numSets))
	}
	return &LLC{
		ways:     make([]uint64, 2*lines),
		numSets:  uint64(numSets),
		tagShift: uint(bits.TrailingZeros64(uint64(numSets))),
		assoc:    assoc,
		policy:   policy,
	}
}

// Reset returns the cache to its post-New state — empty, counters zeroed —
// reusing the backing array. sim.Scratch resets rather than reallocates the
// LLCs between simulator runs.
func (c *LLC) Reset() {
	clear(c.ways)
	c.clock, c.tagReads = 0, 0
	c.hits, c.misses, c.writebacks = 0, 0, 0
	c.miss = missScan{}
}

func (c *LLC) setIndex(addr uint64) uint64 { return addr & (c.numSets - 1) }
func (c *LLC) tagOf(addr uint64) uint64    { return addr >> c.tagShift }

// setBase returns the index in ways of set setIdx's first tag word; the
// way at index w keeps its recency at w+assoc.
func (c *LLC) setBase(setIdx uint64) int { return int(setIdx) * 2 * c.assoc }

// scan walks addr's set once. It returns the way holding addr, or -1
// after storing in m the set's free way, plain-LRU way and whether any way
// is upgraded.
func (c *LLC) scan(addr uint64, m *missScan) int {
	base := c.setBase(c.setIndex(addr))
	want := c.tagOf(addr) + 1
	tags := c.ways[base : base+c.assoc]
	lastUse := c.ways[base+c.assoc : base+c.assoc+len(tags)]
	free, lru := -1, 0
	oldest := int64(math.MaxInt64)
	var seen uint64
	for i, t := range tags {
		switch {
		case t>>flagBits == want:
			return base + i
		case t == 0:
			if free < 0 {
				free = base + i
			}
		default:
			if rec := int64(lastUse[i]); rec < oldest {
				oldest, lru = rec, base+i
			}
			seen |= t
		}
	}
	*m = missScan{addr: addr, free: free, lru: lru, upgraded: seen&flagUpgraded != 0}
	return -1
}

// Access looks up addr, updating recency and the dirty bit on a hit.
// It reports whether the access hit. A miss saves its set scan for the
// InsertInto that follows.
func (c *LLC) Access(addr uint64, write bool) bool {
	c.clock++
	c.tagReads++
	if w := c.scan(addr, &c.miss); w >= 0 {
		c.hits++
		c.ways[w+c.assoc] = uint64(c.clock)
		if write {
			c.ways[w] |= flagDirty
		}
		return true
	}
	c.misses++
	c.miss.at = c.clock + 1
	return false
}

// InsertInto fills addr after a miss. For upgraded lines both sub-lines
// (addr&^1 and addr|1) are inserted — the memory returned the whole 128 B
// line. write marks the *requested* line dirty. The evictions (at most
// three: a victim plus an upgraded victim's partner per sub-line inserted)
// are appended to evs and the extended slice is returned. Passing a
// scratch slice with spare capacity makes a steady-state miss path
// allocation-free.
func (c *LLC) InsertInto(addr uint64, upgraded, write bool, evs []Eviction) []Eviction {
	c.clock++
	if !upgraded {
		return c.insertOne(addr, false, write, evs)
	}
	lo, hi := addr&^uint64(1), addr|1
	evs = c.insertOne(lo, true, write && addr == lo, evs)
	evs = c.insertOne(hi, true, write && addr == hi, evs)
	return evs
}

func (c *LLC) insertOne(addr uint64, upgraded, dirty bool, evs []Eviction) []Eviction {
	var flags uint64
	if dirty {
		flags |= flagDirty
	}
	if upgraded {
		flags |= flagUpgraded
	}
	// The lookup costs a tag read whether or not a saved scan answers it.
	c.tagReads++
	var m missScan
	if c.miss.at == c.clock && c.miss.addr == addr {
		m, c.miss.at = c.miss, 0
	} else if w := c.scan(addr, &m); w >= 0 {
		// Already resident (e.g. partner was brought in earlier).
		c.ways[w+c.assoc] = uint64(c.clock)
		c.ways[w] |= flags
		return evs
	}
	setIdx := c.setIndex(addr)
	victim := m.free
	if victim < 0 {
		victim = m.lru
		if c.policy == SharedRecency && m.upgraded {
			victim = c.sharedRecencyVictim(setIdx)
		}
		evs = c.evict(victim, setIdx, evs)
	}
	c.ways[victim] = (c.tagOf(addr)+1)<<flagBits | flags
	c.ways[victim+c.assoc] = uint64(c.clock)
	return evs
}

// sharedRecencyVictim picks the LRU way of a full set, judging a sub-line
// of an upgraded pair by the most recent use of either sub-line. Each
// resident partner costs a second tag access (counted; the paper doubles
// replacement time and observes no slowdown).
func (c *LLC) sharedRecencyVictim(setIdx uint64) int {
	base := c.setBase(setIdx)
	best, oldest := base, int64(math.MaxInt64)
	for w := base; w < base+c.assoc; w++ {
		rec := int64(c.ways[w+c.assoc])
		if c.ways[w]&flagUpgraded != 0 {
			if p := c.partnerOf(w, setIdx); p >= 0 {
				c.tagReads++
				rec = max(rec, int64(c.ways[p+c.assoc]))
			}
		}
		if rec < oldest {
			best, oldest = w, rec
		}
	}
	return best
}

// partnerOf finds the partner sub-line of way w of set setIdx, or -1 if it
// is not resident. The partner address differs only in its lowest bit, so
// it carries the same tag in the adjacent set.
func (c *LLC) partnerOf(w int, setIdx uint64) int {
	base := c.setBase(setIdx ^ 1)
	tag1 := c.ways[w] >> flagBits
	for i, t := range c.ways[base : base+c.assoc] {
		if t>>flagBits == tag1 {
			return base + i
		}
	}
	return -1
}

// evict pushes out the valid way w of set setIdx and, for upgraded
// sub-lines, also removes the partner so both halves write back together.
// The evictions are appended to evs. The caller refills w.
func (c *LLC) evict(w int, setIdx uint64, evs []Eviction) []Eviction {
	t := c.ways[w]
	addr := (t>>flagBits-1)<<c.tagShift | setIdx
	dirty := t&flagDirty != 0
	if t&flagUpgraded == 0 {
		if dirty {
			c.writebacks++
		}
		return append(evs, Eviction{Addr: addr, Dirty: dirty})
	}
	partnerAddr := addr ^ 1
	base := len(evs)
	evs = append(evs, Eviction{Addr: addr, Dirty: dirty, Upgraded: true, PairedWith: partnerAddr})
	if p := c.partnerOf(w, setIdx); p >= 0 {
		// Either sub-line dirty forces the pair to write back together.
		partnerDirty := c.ways[p]&flagDirty != 0
		evs = append(evs, Eviction{Addr: partnerAddr, Dirty: partnerDirty, Upgraded: true, PairedWith: addr})
		if dirty || partnerDirty {
			evs[base].Dirty = true
			evs[base+1].Dirty = true
			c.writebacks += 2
		}
		c.ways[p] = 0
		c.miss.at = 0 // the partner's set may be the one the saved scan describes
	} else if dirty {
		c.writebacks++
	}
	return evs
}

// Stats returns hit/miss/writeback counters and total tag reads (the extra
// tag read per replacement is the overhead §4.2.3 discusses).
func (c *LLC) Stats() (hits, misses, writebacks, tagReads int64) {
	return c.hits, c.misses, c.writebacks, c.tagReads
}
