package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"time"

	"arcc/internal/core"
	"arcc/internal/dram"
	"arcc/internal/ecc"
	"arcc/internal/pagedmem"
	"arcc/internal/pagetable"
	"arcc/internal/scrub"
)

// The functional memory: two channels of two 18-device ranks, 8 banks of
// 2 rows each, two 4 KB pages per row — 64 pages. It is kept small so the
// data path's own cost, not host cache misses, sets the time.
const (
	funcRanks    = 2
	funcBanks    = 8
	funcRows     = 2
	funcPages    = funcRanks * funcBanks * funcRows * 2
	funcSlots    = core.LinesPerPage / 2 // line slots per page in each channel
	funcDevices  = 18
	funcStored   = funcDevices * 4 // stored bytes per sub-line: 18 devices x 4 beats
	funcSweeps   = 8               // read and write batches per cycle
	funcReadsPer = 1024
	funcWritePer = 512
	funcDUEReads = 512
)

// funcProduct runs the paper's mechanism on real codewords. Each cycle
// injects a seeded fault, runs a 4-step FullScrub that upgrades the pages
// it finds faulty, sweeps read batches beside write batches over relaxed
// and upgraded pages, then adds a second fault in the other channel and
// checks that reads of upgraded pairs under both faults are reported as
// uncorrectable exactly where the fault schedule predicts. Faults are
// then cleared and every page relaxed, so each cycle starts from the same
// state.
type funcProduct struct {
	p      params
	c      *core.Controller
	sc     *scrub.Scrubber
	rng    *rand.Rand
	shadow [][]byte // last data written, per page (4 KB each)
	buf    []byte

	// Samples per fault scope: scrub pass times, and lines per second of
	// each read and write batch.
	scrubMS, readRates, writeRates byScope
	slow                           []float64 // hostSlowdown before each sample
	reads, writes                  int64
	cycles                         int
	faults                         int // first faults injected, warm-up included
	dueReads, dues                 int64
	upgraded                       int64
	subLines, subReads             int64

	attempted, failed int64
	checkErr          error
}

func newFuncProduct(p params) (product, error) {
	c := core.New(core.Config{Pages: funcPages, RanksPerChannel: funcRanks, BanksPerDevice: funcBanks, RowsPerBank: funcRows})
	c.RelaxAllPristine()
	f := &funcProduct{
		p: p, c: c, sc: scrub.New(c, scrub.FourStep),
		rng:    rand.New(rand.NewSource(p.seed)),
		shadow: make([][]byte, funcPages),
		buf:    make([]byte, core.LineBytes),
	}
	// A seeded footprint: about half the pages written in full; the rest
	// stay holes that read as zero.
	for page := range f.shadow {
		f.shadow[page] = make([]byte, core.LinesPerPage*core.LineBytes)
		if f.rng.Intn(2) == 0 {
			continue
		}
		f.rng.Read(f.shadow[page])
		for line := 0; line < core.LinesPerPage; line++ {
			if err := c.WriteLine(page, line, f.lineOf(page, line)); err != nil {
				return nil, err
			}
		}
	}
	// Warm-up: one full cycle.
	if err := f.cycle(nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	f.reset()
	return f, nil
}

func (f *funcProduct) lineOf(page, line int) []byte {
	return f.shadow[page][line*core.LineBytes : (line+1)*core.LineBytes]
}

func (f *funcProduct) name() string { return "func" }

func (f *funcProduct) unit(tr *tracer) error { return f.cycle(tr) }

// injection is one fault and the ranks of one channel it was placed in
// (both ranks for a lane fault).
type injection struct {
	ch    int
	ranks []int
	f     dram.Fault
}

// randomFault draws a stuck-at fault at seeded coordinates. Its scope —
// device, lane, bank, row or column — rotates from cycle to cycle: the
// scope sets how many pages a cycle upgrades (all of a rank, every page,
// an eighth of a rank, two pages, half a bank), so the rotation keeps the
// work of a run the same whatever the seed.
func (f *funcProduct) randomFault() injection {
	f.faults++
	in := injection{ch: f.rng.Intn(2), ranks: []int{f.rng.Intn(funcRanks)}}
	fl := dram.Fault{
		Device: f.rng.Intn(funcDevices),
		Mode:   dram.StuckAt0 + dram.Mode(f.rng.Intn(2)),
		Bank:   f.rng.Intn(funcBanks),
		Row:    f.rng.Intn(funcRows),
		Col:    f.rng.Intn(2 * funcSlots),
	}
	switch f.scope() {
	case 0:
		fl.Scope = dram.ScopeDevice
	case 1:
		fl.Scope = dram.ScopeDevice
		in.ranks = []int{0, 1}
	case 2:
		fl.Scope = dram.ScopeBank
	case 3:
		fl.Scope = dram.ScopeRow
	default:
		fl.Scope = dram.ScopeColumn
	}
	in.f = fl
	return in
}

// funcScopes is the number of fault scopes the cycles rotate through.
const funcScopes = 5

// scope is the fault scope of the current cycle.
func (f *funcProduct) scope() int { return f.faults % funcScopes }

// byScope holds samples per fault scope, each as measured and scaled to
// the reference machine's speed. Its summary weighs every scope equally,
// so a run that happens to end on a costly scope (a lane fault upgrades
// every page) reads the same as one that does not.
type byScope struct{ raw, ref [funcScopes][]float64 }

func (b *byScope) add(scope int, raw, ref float64) {
	b.raw[scope] = append(b.raw[scope], raw)
	b.ref[scope] = append(b.ref[scope], ref)
}

// balanced is the mean over scopes of each scope's median scaled sample.
func (b *byScope) balanced() float64 {
	var sum float64
	n := 0
	for _, xs := range b.ref {
		if len(xs) > 0 {
			sum += median(xs)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// all returns every sample as measured.
func (b *byScope) all() []float64 {
	var out []float64
	for _, xs := range b.raw {
		out = append(out, xs...)
	}
	return out
}

// funcKernelIters sizes the run of the wide reference kernel timed before
// every func sample; on the reference machine it takes funcKernelNominalMS.
const (
	funcKernelIters     = 2_000
	funcKernelNominalMS = 0.040
)

// hostSlowdown times a short run of the wide reference kernel and returns
// how many times slower than the reference machine the host runs it right
// now; the next sample is scaled by it. The shared boxes this runs on flip,
// tens of milliseconds at a time, into a state in which code that keeps
// many independent instructions in flight runs up to 1.8x slower, as when
// another tenant shares the core's issue slots. The bit-sliced
// Reed-Solomon coding that dominates func's samples is such code; the
// dependent chains of the run-level reference kernel (see normalize)
// barely notice that state, and the share of time spent in it differs from
// run to run. The wide kernel slows with it, and a sample (a batch of
// 512-1024 lines or one scrub pass, at most about ten milliseconds) is
// shorter than the state lasts, so scaling each sample by the kernel timed just
// before it removes the state's share. In 8 runs on the 2-vCPU Xeon box
// whose raw func metrics spread 42-49% (interquartile range over median),
// the scaled ones spread 2-6%; scaled by the run-level kernel they spread
// 26-34%.
func (f *funcProduct) hostSlowdown() float64 {
	k := wideKernel(funcKernelIters) / funcKernelNominalMS
	f.slow = append(f.slow, k)
	return k
}

func (f *funcProduct) inject(in injection) {
	for _, r := range in.ranks {
		f.c.InjectFault(in.ch, r, in.f)
	}
}

// funcAddr is the controller's documented page mapping: pages are
// block-distributed across ranks, interleaved across banks, and packed
// two to a row.
func funcAddr(page, slot int) (rank int, a dram.Addr) {
	perRank := funcBanks * funcRows * 2
	rank, p := page/perRank, page%perRank
	rowPage := p / funcBanks
	return rank, dram.Addr{Bank: p % funcBanks, Row: rowPage / 2, Col: (rowPage%2)*funcSlots + slot}
}

// covers reports whether fault in covers address a of (ch, rank).
func (in injection) covers(ch, rank int, a dram.Addr) bool {
	if ch != in.ch || !slices.Contains(in.ranks, rank) {
		return false
	}
	switch in.f.Scope {
	case dram.ScopeDevice:
		return true
	case dram.ScopeBank:
		return a.Bank == in.f.Bank
	case dram.ScopeRow:
		return a.Bank == in.f.Bank && a.Row == in.f.Row
	case dram.ScopeColumn:
		return a.Bank == in.f.Bank && a.Col == in.f.Col
	}
	return a.Bank == in.f.Bank && a.Row == in.f.Row && a.Col == in.f.Col
}

// faultyPages predicts the pages a scrub finds under in: every page with
// a line slot whose address the fault covers. Stuck-at faults fail the
// scrub's all-zeros or all-ones pattern on every covered cell.
func faultyPages(in injection) []int {
	var out []int
	for page := 0; page < funcPages; page++ {
		for slot := 0; slot < funcSlots; slot++ {
			rank, a := funcAddr(page, slot)
			if in.covers(in.ch, rank, a) {
				out = append(out, page)
				break
			}
		}
	}
	return out
}

func (f *funcProduct) cycle(tr *tracer) error {
	first := f.randomFault()
	f.inject(first)
	want := faultyPages(first)

	k := f.hostSlowdown()
	t0 := time.Now()
	got, err := f.scrubPass(tr)
	ms := float64(time.Since(t0)) / float64(time.Millisecond)
	f.scrubMS.add(f.scope(), ms, ms/k)
	f.attempted++
	if err != nil {
		return err
	}
	if !slices.Equal(got, want) {
		return f.fail(fmt.Errorf("scrub found pages %v under %+v, the fault covers %v", got, first, want))
	}
	for page := 0; page < funcPages; page++ {
		up := f.c.PageMode(page) == pagetable.Upgraded
		if up != slices.Contains(want, page) {
			return f.fail(fmt.Errorf("page %d upgraded=%v after scrub", page, up))
		}
	}
	f.upgraded += int64(len(want))

	for b := 0; b < funcSweeps; b++ {
		if err := f.readBatch(tr); err != nil {
			return err
		}
		if err := f.writeBatch(tr); err != nil {
			return err
		}
	}
	if err := f.duePhase(first); err != nil {
		return err
	}

	for ch := 0; ch < 2; ch++ {
		for r := 0; r < funcRanks; r++ {
			f.c.Rank(ch, r).ClearFaults()
		}
	}
	if n := f.c.RelaxAll(); n != len(want) {
		return f.fail(fmt.Errorf("relaxed %d pages, %d were upgraded", n, len(want)))
	}
	f.cycles++
	return nil
}

func (f *funcProduct) fail(err error) error {
	f.failed++
	f.checkErr = err
	return err
}

// scrubPass runs one 4-step scrub with mode transitions and returns the
// pages it found faulty. Traced, it runs the same steps through their
// public entry points — ScrubPage per page, UpgradePage per faulty page,
// then zero-compaction — with a span around each call.
func (f *funcProduct) scrubPass(tr *tracer) ([]int, error) {
	if tr == nil {
		return f.sc.FullScrub(), nil
	}
	pid := tr.begin("scrub.pass", 0)
	defer tr.end(pid, 1)
	var faulty []int
	for page := 0; page < funcPages; page++ {
		id := tr.begin("scrub.ScrubPage", pid)
		bad := f.sc.ScrubPage(page)
		tr.end(id, 1)
		if bad {
			faulty = append(faulty, page)
		}
	}
	for _, page := range faulty {
		id := tr.begin("core.UpgradePage", pid)
		err := f.c.UpgradePage(page)
		tr.end(id, 1)
		if err != nil {
			return nil, fmt.Errorf("upgrading page %d: %w", page, err)
		}
	}
	f.c.CompactZeroStorage()
	return faulty, nil
}

// readBatch reads seeded lines and requires each to return the data last
// written to it. Traced, the batch is split by page mode into one span of
// relaxed reads and one of upgraded reads.
func (f *funcProduct) readBatch(tr *tracer) error {
	type loc struct{ page, line int }
	locs := make([]loc, funcReadsPer)
	for i := range locs {
		locs[i] = loc{f.rng.Intn(funcPages), f.rng.Intn(core.LinesPerPage)}
	}
	groups := [][]loc{locs}
	names := []string{""}
	if tr != nil {
		var relaxed, upgraded []loc
		for _, l := range locs {
			if f.c.PageMode(l.page) == pagetable.Upgraded {
				upgraded = append(upgraded, l)
			} else {
				relaxed = append(relaxed, l)
			}
		}
		groups = [][]loc{relaxed, upgraded}
		names = []string{"core.ReadLineInto relaxed", "core.ReadLineInto upgraded"}
	}
	k := f.hostSlowdown()
	before := f.c.Stats().SubLineAccesses
	t0 := time.Now()
	var bad error
	for g, ls := range groups {
		id := tr.begin(names[g], 0)
		for _, l := range ls {
			err := f.c.ReadLineInto(l.page, l.line, f.buf)
			if bad == nil && (err != nil || !bytes.Equal(f.buf, f.lineOf(l.page, l.line))) {
				bad = fmt.Errorf("read of page %d line %d: err %v, data matches %v", l.page, l.line, err, err == nil)
			}
		}
		tr.end(id, int64(len(ls)))
	}
	rate := funcReadsPer / time.Since(t0).Seconds()
	f.readRates.add(f.scope(), rate, rate*k)
	f.subLines += f.c.Stats().SubLineAccesses - before
	f.subReads += funcReadsPer
	f.reads += funcReadsPer
	f.attempted += funcReadsPer
	if bad != nil {
		return f.fail(bad)
	}
	return nil
}

// writeBatch writes seeded data to seeded lines.
func (f *funcProduct) writeBatch(tr *tracer) error {
	type w struct{ page, line int }
	ws := make([]w, funcWritePer)
	for i := range ws {
		ws[i] = w{f.rng.Intn(funcPages), f.rng.Intn(core.LinesPerPage)}
		f.rng.Read(f.lineOf(ws[i].page, ws[i].line))
	}
	k := f.hostSlowdown()
	id := tr.begin("core.WriteLine", 0)
	t0 := time.Now()
	var bad error
	for _, x := range ws {
		if err := f.c.WriteLine(x.page, x.line, f.lineOf(x.page, x.line)); err != nil && bad == nil {
			bad = fmt.Errorf("write of page %d line %d: %w", x.page, x.line, err)
		}
	}
	rate := funcWritePer / time.Since(t0).Seconds()
	f.writeRates.add(f.scope(), rate, rate*k)
	tr.end(id, funcWritePer)
	f.writes += funcWritePer
	f.attempted += funcWritePer
	if bad != nil {
		return f.fail(bad)
	}
	return nil
}

// stuckByte is the value a stuck-at fault forces its symbols to.
func stuckByte(m dram.Mode) byte {
	if m == dram.StuckAt1 {
		return 0xFF
	}
	return 0x00
}

// duePhase adds a device fault in the other channel of a rank the first
// fault hit, then reads seeded lines of that rank. A codeword (one beat
// across the line's stored symbols) is uncorrectable exactly when two of
// its symbols are bad: for an upgraded pair, one under each fault; a
// symbol is bad when the stored byte differs from the stuck value. The
// prediction is made from the stored bytes, read without fault overlay.
func (f *funcProduct) duePhase(first injection) error {
	second := injection{ch: 1 - first.ch, ranks: first.ranks[:1], f: dram.Fault{
		Device: f.rng.Intn(funcDevices), Mode: dram.StuckAt0 + dram.Mode(f.rng.Intn(2)), Scope: dram.ScopeDevice}}
	f.inject(second)
	rank := second.ranks[0]
	faults := []injection{first, second}
	var dues, predicted int64
	for i := 0; i < funcDUEReads; i++ {
		page := rank*funcPages/funcRanks + f.rng.Intn(funcPages/funcRanks)
		line := f.rng.Intn(core.LinesPerPage)
		// The sub-lines a read decodes together: the line's own for a
		// relaxed page, both channels' for an upgraded pair.
		chans := []int{line % 2}
		if f.c.PageMode(page) == pagetable.Upgraded {
			chans = []int{0, 1}
		}
		r, a := funcAddr(page, line/2)
		var bad [4]int
		for _, ch := range chans {
			raw := f.c.Rank(ch, r).ReadLineRaw(a)
			for _, in := range faults {
				if !in.covers(ch, r, a) {
					continue
				}
				for beat := range bad {
					if raw[beat*funcDevices+in.f.Device] != stuckByte(in.f.Mode) {
						bad[beat]++
					}
				}
			}
		}
		due := slices.Max(bad[:]) >= 2
		err := f.c.ReadLineInto(page, line, f.buf)
		f.attempted++
		switch {
		case due:
			predicted++
			if errors.Is(err, core.ErrUncorrectable) {
				dues++
			}
		case err != nil || !bytes.Equal(f.buf, f.lineOf(page, line)):
			return f.fail(fmt.Errorf("read of page %d line %d under two faults: err %v", page, line, err))
		}
	}
	f.dueReads += funcDUEReads
	f.dues += dues
	if dues != predicted {
		return f.fail(fmt.Errorf("%d DUEs, the fault schedule predicts %d", dues, predicted))
	}
	return nil
}

func (f *funcProduct) endToEnd() map[string]metric {
	return map[string]metric{
		"func_reads_per_s":  {f.readRates.balanced(), "1/ref-s"},
		"func_writes_per_s": {f.writeRates.balanced(), "1/ref-s"},
		"scrub_pass_ms":     {f.scrubMS.balanced(), "ref-ms"},
	}
}

func (f *funcProduct) reset() {
	f.scrubMS, f.readRates, f.writeRates = byScope{}, byScope{}, byScope{}
	f.slow = nil
	f.reads, f.writes = 0, 0
	f.cycles, f.upgraded, f.subLines, f.subReads = 0, 0, 0, 0
}

func (f *funcProduct) ops() (int64, int64) { return f.attempted, f.failed }

func (f *funcProduct) header() []string {
	return []string{fmt.Sprintf("%d pages, 2 channels x %d ranks; last pass: %d cycles, %d scrub passes, %d reads, %d writes, %d pages upgraded; %d DUEs on %d two-fault reads, all predicted",
		funcPages, funcRanks, f.cycles, len(f.scrubMS.all()), f.reads, f.writes, f.upgraded, f.dues, f.dueReads),
		samples("func_reads_per_s", f.readRates.all()),
		samples("func_writes_per_s", f.writeRates.all()),
		samples("scrub_pass_ms", f.scrubMS.all()),
		samples("host slowdown before each sample (wide kernel)", f.slow),
	}
}

func (f *funcProduct) close() {}

// verify re-reads every line of every page against the data last written.
func (f *funcProduct) verify() error {
	if f.checkErr != nil {
		return f.checkErr
	}
	for page := 0; page < funcPages; page++ {
		for line := 0; line < core.LinesPerPage; line++ {
			if err := f.c.ReadLineInto(page, line, f.buf); err != nil || !bytes.Equal(f.buf, f.lineOf(page, line)) {
				return fmt.Errorf("final read of page %d line %d: err %v", page, line, err)
			}
		}
	}
	return nil
}

// layers times the read path's lower layers alone on the stored lines of
// a seeded set of relaxed lines: the rank's ReadLineInto (fault overlay
// and paged store), the paged store alone, and the relaxed code's batch
// decode.
func (f *funcProduct) layers(tr *tracer) (map[string]metric, error) {
	const n = 4096
	type sub struct {
		ch, rank int
		a        dram.Addr
	}
	subs := make([]sub, n)
	for i := range subs {
		page, line := f.rng.Intn(funcPages), f.rng.Intn(core.LinesPerPage)
		r, a := funcAddr(page, line/2)
		subs[i] = sub{line % 2, r, a}
	}
	raw := make([]byte, n*funcStored)
	id := tr.begin("dram.Rank.ReadLineInto", 0)
	for i, s := range subs {
		f.c.Rank(s.ch, s.rank).ReadLineInto(s.a, raw[i*funcStored:(i+1)*funcStored])
	}
	tr.end(id, n)

	// The same lines in a paged store of their own, at the rank's flat
	// line addresses.
	pm := pagedmem.New(4096)
	addrs := make([]uint64, n)
	for i, s := range subs {
		flat := (uint64(s.a.Bank)*funcRows+uint64(s.a.Row))*2*funcSlots + uint64(s.a.Col)
		addrs[i] = (uint64(s.ch*funcRanks+s.rank)<<32 + flat) * funcStored
		pm.WriteLine(addrs[i], raw[i*funcStored:(i+1)*funcStored])
	}
	line := make([]byte, funcStored)
	id = tr.begin("pagedmem.ReadLineInto", 0)
	for _, a := range addrs {
		pm.ReadLineInto(a, line)
	}
	tr.end(id, n)

	scheme := ecc.NewRelaxed()
	scr := scheme.NewScratch()
	work := make([]byte, len(raw))
	for pass := 0; pass < 4; pass++ {
		copy(work, raw)
		id = tr.begin("ecc.DecodeBatchInto", 0)
		for i := 0; i < n; i++ {
			if _, err := scheme.DecodeBatchInto(work[i*funcStored:(i+1)*funcStored], funcDevices, 4, scr); err != nil {
				return nil, fmt.Errorf("decoding a stored line: %w", err)
			}
		}
		tr.end(id, 4*n)
	}

	st := f.c.Stats()
	return map[string]metric{
		"core.read_relaxed_ns":            {tr.perCall("core.ReadLineInto relaxed"), "ns"},
		"core.read_upgraded_ns":           {tr.perCall("core.ReadLineInto upgraded"), "ns"},
		"ecc.decode_batch_ns_per_cw":      {tr.perCall("ecc.DecodeBatchInto"), "ns"},
		"dram.read_line_ns":               {tr.perCall("dram.Rank.ReadLineInto"), "ns"},
		"pagedmem.read_line_ns":           {tr.perCall("pagedmem.ReadLineInto"), "ns"},
		"core.sub_line_accesses_per_read": {float64(f.subLines) / float64(f.subReads), "count"},
		"core.write_ns":                   {tr.perCall("core.WriteLine"), "ns"},
		"pagedmem.resident_pages":         {float64(f.c.ResidentPages()), "pages"},
		"scrub.page_us":                   {tr.perCall("scrub.ScrubPage") / 1e3, "us"},
		"core.upgrade_us":                 {tr.perCall("core.UpgradePage") / 1e3, "us"},
		"scrub.pages_upgraded":            {float64(f.upgraded) / float64(len(f.scrubMS.all())), "pages"},
		"core.corrected":                  {float64(st.Corrected), "count"},
		"core.dues":                       {float64(st.DUEs), "count"},
	}, nil
}
