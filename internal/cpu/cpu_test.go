package cpu

import (
	"math/rand"
	"slices"
	"testing"
)

// ipc returns committed instructions per cycle so far.
func ipc(c *Core) float64 {
	if c.time == 0 {
		return 0
	}
	return float64(c.instructions) / float64(c.time)
}

// fixedIssuer is a closure-free Issuer for tests: completion = now + lat.
type fixedIssuer struct{ lat int64 }

func (f *fixedIssuer) IssueAt(now int64) int64 { return now + f.lat }

// staleIssuer answers every miss with a completion before it was issued.
type staleIssuer struct{}

func (staleIssuer) IssueAt(int64) int64 { return 1 }

func TestNewPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{WidthIPC: 0, MLP: 4, HitLatency: 10},
		{WidthIPC: 2, MLP: 0, HitLatency: 10},
		{WidthIPC: 2, MLP: 4, HitLatency: -1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%+v) did not panic", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestComputeOnlyIPCApproachesPeak(t *testing.T) {
	c := New(DefaultConfig())
	for i := 0; i < 1000; i++ {
		c.AdvanceCompute(100)
	}
	if got := ipc(c); got < 1.9 || got > 2.0 {
		t.Fatalf("compute-only IPC = %v, want ~2 (peak width)", got)
	}
}

func TestHitsSlowButDoNotStall(t *testing.T) {
	withHits := New(DefaultConfig())
	without := New(DefaultConfig())
	for i := 0; i < 1000; i++ {
		withHits.AdvanceCompute(50)
		withHits.NoteHit()
		without.AdvanceCompute(50)
	}
	if ipc(withHits) >= ipc(without) {
		t.Fatal("hit latency should cost some IPC")
	}
	if ipc(withHits) < ipc(without)/2 {
		t.Fatal("hits cost too much; they are not misses")
	}
}

func TestMLPOverlapsMisses(t *testing.T) {
	// Same miss latency; a core with MLP=4 must finish much faster than a
	// blocking core (MLP=1) on a back-to-back miss stream.
	run := func(mlp int) int64 {
		cfg := DefaultConfig()
		cfg.MLP = mlp
		c := New(cfg)
		const lat = 300
		for i := 0; i < 1000; i++ {
			c.AdvanceCompute(10)
			c.IssueMissTo(&fixedIssuer{lat})
		}
		c.Drain()
		return c.Now()
	}
	blocking, overlapped := run(1), run(4)
	speedup := float64(blocking) / float64(overlapped)
	if speedup < 2.5 {
		t.Fatalf("MLP=4 speedup over blocking = %.2fx, want > 2.5x", speedup)
	}
}

func TestWindowFullStalls(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MLP = 2
	c := New(cfg)
	issue := &fixedIssuer{1000}
	c.IssueMissTo(issue)
	c.IssueMissTo(issue)
	if len(c.outstanding) != 2 {
		t.Fatalf("outstanding = %d, want 2", len(c.outstanding))
	}
	before := c.Now()
	c.IssueMissTo(issue) // must stall until the first completes
	if c.Now() < before+900 {
		t.Fatalf("third miss did not stall the full window: time went %d -> %d", before, c.Now())
	}
}

func TestRetireFreesWindow(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MLP = 2
	c := New(cfg)
	c.IssueMissTo(&fixedIssuer{100})
	c.AdvanceCompute(1000) // plenty of time for the miss to retire
	if len(c.outstanding) != 0 {
		t.Fatalf("outstanding = %d after retirement window", len(c.outstanding))
	}
}

func TestDrain(t *testing.T) {
	c := New(DefaultConfig())
	c.IssueMissTo(&fixedIssuer{500})
	c.Drain()
	if len(c.outstanding) != 0 {
		t.Fatal("Drain left misses outstanding")
	}
	if c.Now() < 500 {
		t.Fatalf("Drain did not advance time to completion: %d", c.Now())
	}
}

func TestCompletionBeforeNowClamped(t *testing.T) {
	c := New(DefaultConfig())
	c.AdvanceCompute(10000)
	c.IssueMissTo(staleIssuer{}) // stale completion
	c.Drain()
	if c.Now() < 5000 {
		t.Fatal("time went backwards")
	}
}

func TestNegativeGapPanics(t *testing.T) {
	c := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.AdvanceCompute(-1)
}

func TestMemoryLatencySensitivity(t *testing.T) {
	// Doubling miss latency must cost IPC on a miss-heavy stream.
	run := func(lat int64) float64 {
		c := New(DefaultConfig())
		for i := 0; i < 2000; i++ {
			c.AdvanceCompute(20)
			c.IssueMissTo(&fixedIssuer{lat})
		}
		c.Drain()
		return ipc(c)
	}
	fast, slow := run(150), run(300)
	if slow >= fast {
		t.Fatalf("IPC not sensitive to memory latency: %v vs %v", fast, slow)
	}
}

// refWindow is the sorted-slice miss window Core used before the
// insertion-from-the-back window: binary-search insert, compaction after a
// full scan in retire. It is the oracle for TestWindowMatchesSortedReference.
type refWindow struct {
	cfg         Config
	time        int64
	outstanding []int64
}

func (r *refWindow) retire() {
	i := 0
	for i < len(r.outstanding) && r.outstanding[i] <= r.time {
		i++
	}
	r.outstanding = slices.Delete(r.outstanding, 0, i)
}

func (r *refWindow) advance(gap int) {
	r.time += int64(float64(gap)/r.cfg.WidthIPC + 0.5)
	r.retire()
}

func (r *refWindow) hit() {
	r.time += r.cfg.HitLatency
	r.retire()
}

func (r *refWindow) issue(lat int64) {
	r.retire()
	if len(r.outstanding) >= r.cfg.MLP {
		r.time = max(r.time, r.outstanding[0])
		r.retire()
	}
	complete := max(r.time+lat, r.time)
	i, _ := slices.BinarySearch(r.outstanding, complete)
	r.outstanding = slices.Insert(r.outstanding, i, complete)
	r.time += r.cfg.HitLatency
}

func (r *refWindow) drain() {
	if n := len(r.outstanding); n > 0 {
		r.time = max(r.time, r.outstanding[n-1])
		r.outstanding = r.outstanding[:0]
	}
}

// TestWindowMatchesSortedReference drives Core and the sorted-slice
// reference with the same random calls — completion times drawn from a
// handful of latencies so duplicates are common, some stale, and bursts
// long enough to fill the window — and requires the same Now() and window
// after every call.
func TestWindowMatchesSortedReference(t *testing.T) {
	for _, mlp := range []int{1, 2, 4, 8} {
		cfg := DefaultConfig()
		cfg.MLP = mlp
		c := New(cfg)
		ref := &refWindow{cfg: cfg}
		rng := rand.New(rand.NewSource(int64(mlp)))
		iss := &fixedIssuer{}
		lats := []int64{-50, 0, 10, 10, 120, 300, 300, 301, 900}
		for step := 0; step < 50000; step++ {
			var call string
			switch r := rng.Intn(10); {
			case r < 2:
				call = "AdvanceCompute"
				gap := rng.Intn(60)
				c.AdvanceCompute(gap)
				ref.advance(gap)
			case r < 3:
				call = "NoteHit"
				c.NoteHit()
				ref.hit()
			case r < 9:
				call = "IssueMissTo"
				iss.lat = lats[rng.Intn(len(lats))]
				ref.issue(iss.lat)
				c.IssueMissTo(iss)
			default:
				call = "Drain"
				c.Drain()
				ref.drain()
			}
			if c.Now() != ref.time || !slices.Equal(c.outstanding, ref.outstanding) {
				t.Fatalf("MLP %d step %d %s: now %d window %v, reference now %d window %v",
					mlp, step, call, c.Now(), c.outstanding, ref.time, ref.outstanding)
			}
			if cap(c.outstanding) != mlp+1 {
				t.Fatalf("MLP %d step %d: window regrown to cap %d", mlp, step, cap(c.outstanding))
			}
		}
	}
}

// TestIssueMissToAllocationFree pins the miss-issue path to zero heap
// allocations, including the MLP-full stall path and retire compaction.
func TestIssueMissToAllocationFree(t *testing.T) {
	c := New(DefaultConfig())
	iss := &fixedIssuer{lat: 300}
	step := func() {
		c.AdvanceCompute(3)
		c.IssueMissTo(iss)
	}
	step() // warm up
	if allocs := testing.AllocsPerRun(1000, step); allocs != 0 {
		t.Errorf("IssueMissTo: %v allocs/op, want 0", allocs)
	}
}

// TestReset pins that a reset core behaves like a fresh one.
func TestReset(t *testing.T) {
	c := New(DefaultConfig())
	iss := &fixedIssuer{lat: 100}
	for i := 0; i < 10; i++ {
		c.AdvanceCompute(5)
		c.IssueMissTo(iss)
	}
	c.Reset()
	if c.Now() != 0 || c.Instructions() != 0 || len(c.outstanding) != 0 {
		t.Fatalf("Reset left state: now %d, instr %d, misses %d", c.Now(), c.Instructions(), len(c.outstanding))
	}
	fresh := New(DefaultConfig())
	for i := 0; i < 10; i++ {
		c.AdvanceCompute(5)
		fresh.AdvanceCompute(5)
		c.IssueMissTo(iss)
		fresh.IssueMissTo(iss)
		if c.Now() != fresh.Now() {
			t.Fatalf("step %d: reset core diverged from fresh", i)
		}
	}
}
