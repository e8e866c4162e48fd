package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"arcc/internal/cache"
	"arcc/internal/cpu"
	"arcc/internal/exhibit"
	"arcc/internal/experiments"
	"arcc/internal/mc"
	"arcc/internal/memctrl"
	"arcc/internal/power"
	"arcc/internal/sim"
	"arcc/internal/workload"
)

// fullInstr is the full-profile instruction budget per core of the Fig 7.x
// exhibits (the quick profile uses less).
const fullInstr = 1_000_000

// simFig is one regenerated exhibit and the simulator runs it performs.
type simFig struct {
	name   string
	runs   int
	golden string
}

// Fig 7.1 runs every mix fault-free on both systems (24 runs); Fig 7.3
// runs every mix clean and under four upgraded-page fractions (60 runs).
var simFigs = []simFig{
	{"f7.1", 24, "fig71_quick_seed1.golden"},
	{"f7.3", 60, "fig73_quick_seed1.golden"},
}

// simProduct regenerates full-profile Fig 7.1 and Fig 7.3 through the
// exhibit registry and the text renderer.
type simProduct struct {
	p     params
	mixes []workload.Mix
	// sources[m] holds mix m's four per-core streams at the run's seed,
	// recorded over exactly the accesses a full-profile run consumes.
	sources [][4]*workload.TraceSource

	// rates[0] and rates[1] hold one throughput sample per regeneration,
	// in simulated Minstr per host second, of Fig 7.1 and Fig 7.3.
	rates   [2][]float64
	next    int            // the exhibit the next unit regenerates
	data    map[string]any // last report data per exhibit
	digests digestLog

	attempted, failed int64
	directRuns        int
	mirrorRuns        int
}

func newSimProduct(p params) (product, error) {
	s := &simProduct{p: p, mixes: workload.Mixes(), data: map[string]any{}}
	for _, f := range simFigs {
		if _, ok := exhibit.Lookup(f.name); !ok {
			return nil, fmt.Errorf("exhibit %s not registered", f.name)
		}
	}
	for _, mix := range s.mixes {
		s.sources = append(s.sources, recordStreams(mix, p.seed, fullInstr))
	}
	// Warm-up: a quick Fig 7.1 touches every layer of the simulator.
	e, _ := exhibit.Lookup("f7.1")
	cfg := exhibit.NewConfig(exhibit.WithQuick(true), exhibit.WithSeed(p.seed+1), exhibit.WithParallel(p.parallel))
	if _, err := e.Run(context.Background(), cfg); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return s, nil
}

// recordStreams records the four per-core access streams sim.RunWith
// generates for mix at seed, each through the access that completes the
// instruction budget — the last one a run consumes — plus one more, so a
// run that consumed more than predicted shows as a wrapped source.
func recordStreams(mix workload.Mix, seed, instr int64) [4]*workload.TraceSource {
	var out [4]*workload.TraceSource
	base := uint64(0)
	for i, b := range mix.Benchmarks {
		st := b.NewStream(seed+int64(i)*7919, base)
		var accs []workload.Access
		for n := int64(0); n < instr; {
			a := st.Next()
			accs = append(accs, a)
			n += int64(a.Gap)
		}
		out[i] = workload.NewTraceSource(append(accs, st.Next()))
		// Regions start page-aligned, as in sim.RunWith.
		base += uint64(b.FootprintLines)
		base = (base + 63) &^ 63
	}
	return out
}

func (s *simProduct) name() string { return "sim" }

// unit regenerates one of the two exhibits, in turn. Traced, every
// completed pair is followed by the same configs run directly.
func (s *simProduct) unit(tr *tracer) error {
	i := s.next
	s.next = (s.next + 1) % len(simFigs)
	if err := s.regenerate(i, tr); err != nil || tr == nil || s.next != 0 {
		return err
	}
	return s.direct(tr)
}

// regenerate runs exhibit simFigs[i] and renders it as text.
func (s *simProduct) regenerate(i int, tr *tracer) error {
	f := simFigs[i]
	e, _ := exhibit.Lookup(f.name)
	cfg := exhibit.NewConfig(exhibit.WithSeed(s.p.seed), exhibit.WithParallel(s.p.parallel))
	s.attempted++
	id := tr.begin("exhibit.Run "+f.name, 0)
	t0 := time.Now()
	rep, err := e.Run(context.Background(), cfg)
	var text bytes.Buffer
	if err == nil {
		err = exhibit.TextRenderer{}.Render(&text, rep)
	}
	dt := time.Since(t0).Seconds()
	tr.end(id, 1)
	if err != nil {
		s.failed++
		return fmt.Errorf("%s: %w", f.name, err)
	}
	s.rates[i] = append(s.rates[i], float64(f.runs)*4*fullInstr/dt/1e6)
	var js bytes.Buffer
	if err := (exhibit.JSONRenderer{}).Render(&js, rep); err != nil {
		return err
	}
	if err := s.digests.check(f.name, digest(text.Bytes(), js.Bytes())); err != nil {
		return err
	}
	s.data[f.name] = rep.Data
	return nil
}

// directConfigs lists the simulator configs the two exhibits run, in
// exhibit order: Fig 7.1's (baseline, ARCC) pair per mix, then Fig 7.3's
// clean run per mix and its run per (fault scenario, mix).
func (s *simProduct) directConfigs() []sim.Config {
	var out []sim.Config
	mk := func(mix workload.Mix, sys sim.MemorySystem, frac float64) sim.Config {
		c := sim.DefaultConfig(mix, sys)
		c.InstructionsPerCore = fullInstr
		c.UpgradedFraction = frac
		c.Seed = s.p.seed
		return c
	}
	for _, m := range s.mixes {
		out = append(out, mk(m, sim.Baseline, 0), mk(m, sim.ARCC, 0))
	}
	for _, m := range s.mixes {
		out = append(out, mk(m, sim.ARCC, 0))
	}
	for _, sc := range experiments.FaultScenarios() {
		for _, m := range s.mixes {
			out = append(out, mk(m, sim.ARCC, sc.Fraction))
		}
	}
	return out
}

// direct runs every exhibit config straight through sim.RunWith, on as
// many workers as the exhibits use, with a span per run, and requires the
// results to reproduce the exhibits' numbers exactly.
func (s *simProduct) direct(tr *tracer) error {
	cfgs := s.directConfigs()
	results := make([]sim.Result, len(cfgs))
	pid := tr.begin("sim.direct", 0)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < s.p.parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			scratch := sim.NewScratch()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cfgs) {
					return
				}
				id := tr.begin("sim.RunWith", pid)
				results[i] = sim.RunWith(cfgs[i], scratch)
				tr.end(id, 1)
			}
		}()
	}
	wg.Wait()
	tr.end(pid, int64(len(cfgs)))
	s.directRuns += len(cfgs)
	if err := s.digests.check("sim.RunWith", digest([]byte(fmt.Sprint(results)))); err != nil {
		return err
	}
	return s.matchExhibits(results)
}

// matchExhibits recomputes the exhibits' normalised numbers from direct
// simulator results, with the same float operations the exhibits use.
func (s *simProduct) matchExhibits(results []sim.Result) error {
	f71, ok := s.data["f7.1"].(experiments.Fig71Result)
	if !ok {
		return fmt.Errorf("f7.1 data has type %T", s.data["f7.1"])
	}
	n := len(s.mixes)
	for i := 0; i < n; i++ {
		base, arcc := results[2*i], results[2*i+1]
		if 1-arcc.PowerMW/base.PowerMW != f71.PowerReduction[i] || arcc.IPCSum/base.IPCSum-1 != f71.IPCGain[i] {
			return fmt.Errorf("direct sim.RunWith disagrees with Fig 7.1 on %s", s.mixes[i].Name)
		}
	}
	f73, ok := s.data["f7.3"].(experiments.FaultSweepResult)
	if !ok {
		return fmt.Errorf("f7.3 data has type %T", s.data["f7.3"])
	}
	clean := results[2*n : 3*n]
	for sc := range f73.Normalized {
		for m := 0; m < n; m++ {
			if results[3*n+sc*n+m].IPCSum/clean[m].IPCSum != f73.Normalized[sc][m] {
				return fmt.Errorf("direct sim.RunWith disagrees with Fig 7.3 on scenario %d, %s", sc, s.mixes[m].Name)
			}
		}
	}
	return nil
}

func (s *simProduct) endToEnd() map[string]metric {
	return map[string]metric{
		"sim_clean_minstr_per_s":  {median(s.rates[0]), "Minstr/s"},
		"sim_faulty_minstr_per_s": {median(s.rates[1]), "Minstr/s"},
	}
}

func (s *simProduct) reset() {
	s.rates = [2][]float64{}
}

func (s *simProduct) ops() (int64, int64) { return s.attempted, s.failed }

func (s *simProduct) header() []string {
	return []string{
		fmt.Sprintf("full-profile f7.1 (24 runs) and f7.3 (60 runs) in turn at %d instructions per core, parallel %d; %d direct sim.RunWith, %d mirrored layer runs",
			fullInstr, s.p.parallel, s.directRuns, s.mirrorRuns),
		samples("sim_clean_minstr_per_s", s.rates[0]),
		samples("sim_faulty_minstr_per_s", s.rates[1]),
		"digests " + s.digests.summary(),
	}
}

func (s *simProduct) close() {}

// verify checks the quick-profile goldens and the replay equivalence.
func (s *simProduct) verify() error {
	for _, f := range simFigs {
		if err := checkGolden(f.name, f.golden, s.p.parallel); err != nil {
			return err
		}
	}
	return s.checkReplay()
}

// checkGolden renders exhibit name at seed 1 under the quick profile and
// requires it to match the checked-in golden byte for byte. The golden is
// only read.
func checkGolden(name, golden string, parallel int) error {
	want, err := os.ReadFile(filepath.Join("internal", "experiments", "testdata", golden))
	if err != nil {
		return err
	}
	e, ok := exhibit.Lookup(name)
	if !ok {
		return fmt.Errorf("exhibit %s not registered", name)
	}
	rep, err := e.Run(context.Background(), exhibit.NewConfig(exhibit.WithQuick(true), exhibit.WithSeed(1), exhibit.WithParallel(parallel)))
	if err != nil {
		return err
	}
	var got bytes.Buffer
	if err := (exhibit.TextRenderer{}).Render(&got, rep); err != nil {
		return err
	}
	if !bytes.Equal(got.Bytes(), want) {
		return fmt.Errorf("%s quick seed 1 differs from %s", name, golden)
	}
	return nil
}

// checkReplay runs every mix's fault-free ARCC config twice — on the
// synthetic generators and on clones of the recorded streams — and
// requires identical results (LLC hits and misses, memory reads and
// writes, IPC, power), with no recorded stream running out.
func (s *simProduct) checkReplay() error {
	type pair struct{ Integrated, Replayed sim.Result }
	wrapped := make([]bool, len(s.mixes))
	pairs := mc.MapScratch(len(s.mixes), s.p.seed, mc.Options{Parallelism: s.p.parallel, ShardSize: 1}, sim.NewScratch,
		func(_ *rand.Rand, i int, scratch *sim.Scratch) pair {
			cfg := sim.DefaultConfig(s.mixes[i], sim.ARCC)
			cfg.Seed = s.p.seed
			integrated := sim.RunWith(cfg, scratch)
			var clones [4]*workload.TraceSource
			for c := range cfg.Sources {
				clones[c] = s.sources[i][c].Clone()
				cfg.Sources[c] = clones[c]
			}
			replayed := sim.RunWith(cfg, scratch)
			for _, c := range clones {
				wrapped[i] = wrapped[i] || c.Wrapped()
			}
			return pair{integrated, replayed}
		})
	for i, p := range pairs {
		if p.Integrated != p.Replayed {
			return fmt.Errorf("replayed streams of %s diverge from the integrated run: %+v vs %+v", s.mixes[i].Name, p.Replayed, p.Integrated)
		}
		if wrapped[i] {
			return fmt.Errorf("recorded streams of %s ran out", s.mixes[i].Name)
		}
	}
	return nil
}

// layers measures the simulator's layers: the engine's fan-out overhead,
// then a mirrored run per sampled config that replays the recorded
// streams through cpu, cache and memctrl exactly as sim.RunWith drives
// them (checked equal to sim.RunWith), logging every call, and finally
// each layer alone, replaying its logged calls in batches.
func (s *simProduct) layers(tr *tracer) (map[string]metric, error) {
	// A traced budget too short for a whole pair leaves no direct runs.
	if len(tr.durations("sim.RunWith", time.Millisecond)) == 0 {
		for s.next != 0 {
			if err := s.unit(tr); err != nil {
				return nil, err
			}
		}
	}
	const mapItems = 20_000
	for b := 0; b < 3; b++ {
		id := tr.begin("mc.MapScratch", 0)
		_, err := mc.MapScratchCtx(context.Background(), mapItems, s.p.seed, mc.Options{Parallelism: s.p.parallel, ShardSize: 1},
			func() struct{} { return struct{}{} },
			func(_ *rand.Rand, i int, _ struct{}) int { return i })
		tr.end(id, mapItems)
		if err != nil {
			return nil, err
		}
	}

	rng := rand.New(rand.NewSource(s.p.seed))
	scenarios := experiments.FaultScenarios()
	var tot mirrorCounts
	for k := 0; k < 2; k++ {
		m := rng.Intn(len(s.mixes))
		frac := scenarios[rng.Intn(len(scenarios))].Fraction
		for _, c := range []struct {
			sys  sim.MemorySystem
			frac float64
		}{{sim.Baseline, 0}, {sim.ARCC, 0}, {sim.ARCC, frac}} {
			cfg := sim.DefaultConfig(s.mixes[m], c.sys)
			cfg.Seed = s.p.seed
			cfg.UpgradedFraction = c.frac
			counts, err := s.mirror(cfg, m, tr)
			if err != nil {
				return nil, err
			}
			tot.add(counts)
		}
		s.timeStreams(m, tr)
	}

	run := tr.durations("sim.RunWith", time.Millisecond)
	_, tail, ok := tailPercentile(run)
	if !ok {
		tail = quantile(run, 1)
	}
	return map[string]metric{
		"exhibit.run_ms": {median(tr.durations("exhibit.Run f7.1", time.Millisecond)) +
			median(tr.durations("exhibit.Run f7.3", time.Millisecond)), "ms"},
		"sim.run_ms":                 {median(run), "ms"},
		"sim.run_tail_ms":            {tail, "ms"},
		"mc.map_ns_per_item":         {tr.perCall("mc.MapScratch"), "ns"},
		"workload.next_ns":           {tr.perCall("workload.Stream.Next"), "ns"},
		"cpu.advance_ns":             {tr.perCall("cpu.AdvanceCompute"), "ns"},
		"cpu.issue_miss_ns":          {tr.perCall("cpu.IssueMissTo"), "ns"},
		"cache.access_ns":            {tr.perCall("cache.Access"), "ns"},
		"cache.insert_ns":            {tr.perCall("cache.InsertInto"), "ns"},
		"cache.hit_ratio":            {float64(tot.hits) / float64(tot.hits+tot.inserts), "ratio"},
		"cache.evictions_per_insert": {float64(tot.evictions) / float64(tot.inserts), "ratio"},
		"cache.paired_insert_frac":   {float64(tot.upInserts) / float64(tot.inserts), "ratio"},
		"memctrl.access_ns":          {tr.perCall("memctrl.Access"), "ns"},
		"memctrl.paired_ns":          {tr.perCall("memctrl.AccessPaired"), "ns"},
		"memctrl.reads":              {float64(tot.reads), "count"},
		"memctrl.writes":             {float64(tot.writes), "count"},
	}, nil
}

// timeStreams times the synthetic generator of mix m's four cores over
// the number of accesses a full run draws.
func (s *simProduct) timeStreams(m int, tr *tracer) {
	base := uint64(0)
	for i, b := range s.mixes[m].Benchmarks {
		n := s.sources[m][i].Len()
		st := b.NewStream(s.p.seed+int64(i)*7919, base)
		id := tr.begin("workload.Stream.Next", 0)
		for j := 0; j < n; j++ {
			st.Next()
		}
		tr.end(id, int64(n))
		base += uint64(b.FootprintLines)
		base = (base + 63) &^ 63
	}
}

// The logged calls of a mirrored run, one slice per layer.
type cacheOp struct {
	addr      uint64
	core      uint8
	insert    bool
	write, up bool
}

type memOp struct {
	now           int64
	ch, bank      int32
	write, paired bool
}

type cpuOp struct {
	kind uint8 // cpuAdvance, cpuHit, cpuIssue, cpuDrain
	arg  int64 // gap, or the miss's completion cycle
}

const (
	cpuAdvance = iota
	cpuHit
	cpuIssue
	cpuDrain
)

type mirrorCounts struct {
	hits, inserts, upInserts, evictions, reads, writes int64
}

func (m *mirrorCounts) add(o mirrorCounts) {
	m.hits += o.hits
	m.inserts += o.inserts
	m.upInserts += o.upInserts
	m.evictions += o.evictions
	m.reads += o.reads
	m.writes += o.writes
}

type mirrorLog struct {
	cache []cacheOp
	mem   []memOp
	cpu   [4][]cpuOp
}

// newMemSystem builds the controller and power meter sim.RunWith builds
// for the paper's DDR2 configuration of sys.
func newMemSystem(sys sim.MemorySystem) (*memctrl.Controller, *power.Meter) {
	if sys == sim.Baseline {
		meter := power.NewMeter(power.Micron512MbX4())
		t := memctrl.DDR2X4Timing()
		t.TREFI, t.TRFC = 2600, 35
		return memctrl.New(memctrl.Config{Channels: 2, RanksPerChannel: 1, BanksPerRank: 8,
			Timing: t, DevicesPerAccess: 36, BurstBeats: 4}, meter), meter
	}
	meter := power.NewMeter(power.Micron512MbX8())
	t := memctrl.DDR2X8Timing()
	t.TREFI, t.TRFC = 2600, 35
	return memctrl.New(memctrl.Config{Channels: 2, RanksPerChannel: 2, BanksPerRank: 8,
		Timing: t, DevicesPerAccess: 18, BurstBeats: 4}, meter), meter
}

// upgradedPage is the simulator's page-mode oracle: a page is upgraded
// when a seeded hash of its number falls under the threshold.
func upgradedPage(page uint64, seed int64, threshold uint64) bool {
	h := (page ^ uint64(seed)<<40) * 0x9E3779B97F4A7C15
	h ^= h >> 33
	h *= 0xC2B2AE3D27D4EB4F
	h ^= h >> 29
	return h&0xFFFFFFFF < threshold
}

// mirrorIssuer books a demand miss as sim.RunWith does and logs it.
type mirrorIssuer struct {
	mem        *memctrl.Controller
	cpr        int64
	ranksBanks uint64
	line       uint64
	isUp       bool
	last       int64
	log        *mirrorLog
}

func (m *mirrorIssuer) IssueAt(nowCPU int64) int64 {
	now := nowCPU / m.cpr
	ch, bank := int(m.line&1), int((m.line>>1)%m.ranksBanks)
	if m.isUp {
		m.last = m.mem.AccessPaired(now, bank, false) * m.cpr
	} else {
		m.last = m.mem.Access(now, ch, bank, false) * m.cpr
	}
	m.log.mem = append(m.log.mem, memOp{now: now, ch: int32(ch), bank: int32(bank), paired: m.isUp})
	return m.last
}

// mirror replays mix m's recorded streams through fresh cpu, cache and
// memctrl instances in sim.RunWith's event order, requires the outcome to
// equal sim.RunWith on the same streams, then times each layer alone on
// the logged calls.
func (s *simProduct) mirror(cfg sim.Config, m int, tr *tracer) (mirrorCounts, error) {
	var srcs [4]workload.Source
	for i := range srcs {
		srcs[i] = s.sources[m][i].Clone()
		cfg.Sources[i] = s.sources[m][i].Clone()
	}
	want := sim.RunWith(cfg, nil)

	log := &mirrorLog{}
	mem, meter := newMemSystem(cfg.System)
	threshold := uint64(cfg.UpgradedFraction * float64(1<<32))
	oracleOn := cfg.System == sim.ARCC && threshold != 0
	var cores [4]*cpu.Core
	var llcs [4]*cache.LLC
	var done [4]bool
	for i := range cores {
		cores[i] = cpu.New(cpu.DefaultConfig())
		llcs[i] = cache.New(cfg.LLCBytes, cfg.LLCAssoc, cfg.LLCPolicy)
	}
	ranksBanks := uint64(mem.Config().RanksPerChannel * mem.Config().BanksPerRank)
	cpr := cfg.CPUCyclesPerDRAMCycle
	iss := &mirrorIssuer{mem: mem, cpr: cpr, ranksBanks: ranksBanks, log: log}
	var evs []cache.Eviction
	var handled []uint64
	var counts mirrorCounts
	var demand, upFetch int64
	for {
		next := -1
		for i := range cores {
			if !done[i] && (next < 0 || cores[i].Now() < cores[next].Now()) {
				next = i
			}
		}
		if next < 0 {
			break
		}
		core, llc := cores[next], llcs[next]
		a := srcs[next].Next()
		core.AdvanceCompute(a.Gap)
		log.cpu[next] = append(log.cpu[next], cpuOp{cpuAdvance, int64(a.Gap)})
		if core.Instructions() >= cfg.InstructionsPerCore {
			core.Drain()
			log.cpu[next] = append(log.cpu[next], cpuOp{cpuDrain, 0})
			done[next] = true
			continue
		}
		hit := llc.Access(a.Line, a.Write)
		log.cache = append(log.cache, cacheOp{addr: a.Line, core: uint8(next), write: a.Write})
		if hit {
			core.NoteHit()
			log.cpu[next] = append(log.cpu[next], cpuOp{cpuHit, 0})
			counts.hits++
			continue
		}
		isUp := oracleOn && upgradedPage(a.Line>>6, cfg.Seed, threshold)
		evs = llc.InsertInto(a.Line, isUp, a.Write, evs[:0])
		log.cache = append(log.cache, cacheOp{addr: a.Line, core: uint8(next), insert: true, write: a.Write, up: isUp})
		counts.inserts++
		counts.evictions += int64(len(evs))
		if isUp {
			counts.upInserts++
		}
		handled = mirrorWriteback(mem, cpr, ranksBanks, core.Now(), evs, handled, log)
		demand++
		if isUp {
			upFetch++
		}
		iss.line, iss.isUp = a.Line, isUp
		if a.Write {
			iss.IssueAt(core.Now())
			continue
		}
		core.IssueMissTo(iss)
		log.cpu[next] = append(log.cpu[next], cpuOp{cpuIssue, iss.last})
	}

	var got sim.Result
	var slowest, hits, misses int64
	for i := range cores {
		got.PerCoreIPC[i] = float64(cfg.InstructionsPerCore) / float64(cores[i].Now())
		got.IPCSum += got.PerCoreIPC[i]
		slowest = max(slowest, cores[i].Now())
		h, mi, _, _ := llcs[i].Stats()
		hits += h
		misses += mi
	}
	got.ElapsedDRAMCycles = max(slowest/cpr, mem.LastCompletion())
	got.MemReads, got.MemWrites = mem.Stats()
	got.LLCHitRate = float64(hits) / float64(hits+misses)
	if demand > 0 {
		got.UpgradedAccessFraction = float64(upFetch) / float64(demand)
	}
	got.PowerMW = meter.AveragePowerMW(float64(got.ElapsedDRAMCycles)*3.0, 72, mem.BankUtilization(got.ElapsedDRAMCycles), 0.9)
	if got != want {
		return counts, fmt.Errorf("mirrored layers diverge from sim.RunWith on %s/%v/%.3f: %+v vs %+v",
			cfg.Mix.Name, cfg.System, cfg.UpgradedFraction, got, want)
	}
	counts.reads, counts.writes = got.MemReads, got.MemWrites
	s.mirrorRuns++
	return counts, s.replayLayers(cfg, log, tr)
}

// mirrorWriteback books eviction traffic as sim.RunWith does: an upgraded
// pair evicted as two entries writes back once.
func mirrorWriteback(mem *memctrl.Controller, cpr int64, ranksBanks uint64, nowCPU int64, evs []cache.Eviction, handled []uint64, log *mirrorLog) []uint64 {
	now := nowCPU / cpr
	handled = handled[:0]
	for _, e := range evs {
		if !e.Dirty || slices.Contains(handled, e.Addr) {
			continue
		}
		bank := int((e.Addr >> 1) % ranksBanks)
		if e.Upgraded {
			mem.AccessPaired(now, bank, true)
			log.mem = append(log.mem, memOp{now: now, bank: int32(bank), write: true, paired: true})
			handled = append(handled, e.Addr, e.PairedWith)
		} else {
			ch := int(e.Addr & 1)
			mem.Access(now, ch, bank, true)
			log.mem = append(log.mem, memOp{now: now, ch: int32(ch), bank: int32(bank), write: true})
			handled = append(handled, e.Addr)
		}
	}
	return handled
}

// fixedIssuer answers a core's miss with the completion cycle logged in
// the mirrored run, so the core alone replays its calls.
type fixedIssuer struct{ complete int64 }

func (f *fixedIssuer) IssueAt(int64) int64 { return f.complete }

// replayLayers times cache, memctrl and cpu each alone on the calls the
// mirrored run logged, reading the clock only where the kind of call
// changes.
func (s *simProduct) replayLayers(cfg sim.Config, log *mirrorLog, tr *tracer) error {
	label := fmt.Sprintf(" %s/%v/%.3f", cfg.Mix.Name, cfg.System, cfg.UpgradedFraction)

	var llcs [4]*cache.LLC
	for i := range llcs {
		llcs[i] = cache.New(cfg.LLCBytes, cfg.LLCAssoc, cfg.LLCPolicy)
	}
	var evs []cache.Eviction
	id := tr.begin("cache.replay"+label, 0)
	st := newSegTimer(2)
	for _, op := range log.cache {
		if op.insert {
			st.enter(1)
			evs = llcs[op.core].InsertInto(op.addr, op.up, op.write, evs[:0])
		} else {
			st.enter(0)
			llcs[op.core].Access(op.addr, op.write)
		}
	}
	st.finish()
	tr.end(id, int64(len(log.cache)))
	tr.segment("cache.Access", id, st.busy[0], st.calls[0])
	tr.segment("cache.InsertInto", id, st.busy[1], st.calls[1])

	mem, _ := newMemSystem(cfg.System)
	id = tr.begin("memctrl.replay"+label, 0)
	st = newSegTimer(2)
	for _, op := range log.mem {
		if op.paired {
			st.enter(1)
			mem.AccessPaired(op.now, int(op.bank), op.write)
		} else {
			st.enter(0)
			mem.Access(op.now, int(op.ch), int(op.bank), op.write)
		}
	}
	st.finish()
	tr.end(id, int64(len(log.mem)))
	tr.segment("memctrl.Access", id, st.busy[0], st.calls[0])
	tr.segment("memctrl.AccessPaired", id, st.busy[1], st.calls[1])
	if r, w := mem.Stats(); r+w == 0 {
		return fmt.Errorf("memctrl replay booked nothing")
	}

	id = tr.begin("cpu.replay"+label, 0)
	st = newSegTimer(4)
	var ops int64
	iss := &fixedIssuer{}
	for c := range log.cpu {
		core := cpu.New(cpu.DefaultConfig())
		for _, op := range log.cpu[c] {
			st.enter(int(op.kind))
			switch op.kind {
			case cpuAdvance:
				core.AdvanceCompute(int(op.arg))
			case cpuHit:
				core.NoteHit()
			case cpuIssue:
				iss.complete = op.arg
				core.IssueMissTo(iss)
			case cpuDrain:
				core.Drain()
			}
		}
		ops += int64(len(log.cpu[c]))
	}
	st.finish()
	tr.end(id, ops)
	tr.segment("cpu.AdvanceCompute", id, st.busy[cpuAdvance], st.calls[cpuAdvance])
	tr.segment("cpu.NoteHit", id, st.busy[cpuHit], st.calls[cpuHit])
	tr.segment("cpu.IssueMissTo", id, st.busy[cpuIssue], st.calls[cpuIssue])
	return nil
}
