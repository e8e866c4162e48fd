// Command perfbench is the repository benchmark. It runs one named
// workload from a single process, times every call into the repository's
// modules from outside (through their public functions), checks that the
// outputs are correct, and prints one JSON result line last:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through the wrapper, which builds it:
//
//	bash perfbench/run.sh --workload sim-fig7 --seed 1 --seconds 30 --trace 0
//
// Every run measures all four products the repository serves — exhibit
// regeneration (sim), lifetime Monte Carlo (mc), arcc-server jobs
// (server) and the functional ARCC data path (func) — so every run prints
// every metric. The workload names the product under study: it gets the
// largest share of the measured time (and therefore the tightest
// numbers); each other product gets a fixed smaller share. The products
// take turns unit by unit and never run at the same time.
//
// With --trace 0 the result carries the end-to-end metrics, measured with
// tracing off; throughputs and latencies are stated at the speed of a
// reference machine (see normalize), with the values as measured in the
// header.
// With --trace 1 each product runs once untraced and once
// with a span around every call into a layer; fine-grained layers are
// timed as batches that replay a recorded input through the layer's public
// functions. The result then carries the per-layer metrics, the header
// states the tracing overhead, and the spans are written to
// .bench_build/perfbench/ at exit.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"
)

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// product is one of the four things the repository serves. A product is
// built by its constructor (set-up, including a warm-up pass), measured by
// run, and checked by verify.
type product interface {
	// name is the product's short label in the header.
	name() string
	// unit executes one unit of work: an exhibit, a Monte Carlo pass, a
	// burst of server jobs, a fault/scrub/sweep cycle. With a non-nil
	// tracer it records a span around every call into a layer.
	unit(tr *tracer) error
	// endToEnd returns the product's end-to-end metrics over the units
	// run since the last reset.
	endToEnd() map[string]metric
	// reset clears the end-to-end accumulators (not the output digests,
	// which must stay equal across every pass of the process).
	reset()
	// layers runs the product's layer batches and returns its per-layer
	// metrics, using the spans run recorded into tr.
	layers(tr *tracer) (map[string]metric, error)
	// verify runs the product's output checks.
	verify() error
	// ops reports operations attempted and failed so far.
	ops() (attempted, failed int64)
	// header returns lines describing the product's parameters and
	// sample counts.
	header() []string
	// close releases the product's resources and waits for its
	// goroutines.
	close()
}

// params are the benchmark's arguments that shape the load. Each
// concurrency knob is capped at nproc.
type params struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	procs    int // GOMAXPROCS
	parallel int // exhibit.WithParallel and mc.Options.Parallelism
	workers  int // server.Options.Workers
	clients  int // closed-loop client connections
	pollMS   int // client poll interval
	hitFrac  float64
}

// workloads maps each workload to the product it studies (BENCHMARK.json
// records why each was chosen). The order is the order products run in.
var workloads = []struct{ name, product string }{
	{"sim-fig7", "sim"},
	{"lifetime-mc", "mc"},
	{"server-jobs", "server"},
	{"func-upgrade", "func"},
}

// primaryShare is the fraction of the measured time the workload's own
// product gets; the other three split the rest evenly.
const primaryShare = 0.4

// setupRounds is how many times a run sets every product up; setup_s is
// the median of the rounds.
const setupRounds = 5

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var p params
	nproc := runtime.NumCPU()
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.StringVar(&p.workload, "workload", "", "workload: sim-fig7, lifetime-mc, server-jobs or func-upgrade")
	fl.Int64Var(&p.seed, "seed", 1, "seed the inputs are generated from")
	fl.IntVar(&p.seconds, "seconds", 30, "measured seconds (set-up and checks excluded)")
	trace := fl.Int("trace", 0, "1 runs traced and prints the per-layer metrics")
	fl.IntVar(&p.procs, "procs", min(2, nproc), "GOMAXPROCS (<= nproc)")
	fl.IntVar(&p.parallel, "parallel", 0, "exhibit and Monte Carlo workers (<= nproc; 0 = procs)")
	fl.IntVar(&p.workers, "workers", 0, "server job workers (<= nproc; 0 = procs)")
	fl.IntVar(&p.clients, "clients", 0, "closed-loop server clients (<= nproc; 0 = procs)")
	fl.IntVar(&p.pollMS, "poll-ms", 2, "server client poll interval in milliseconds")
	fl.Float64Var(&p.hitFrac, "hit-frac", 0.25, "share of server jobs that repeat an earlier request")
	if err := fl.Parse(os.Args[1:]); err != nil {
		return 2
	}
	p.trace = *trace == 1
	for _, knob := range []*int{&p.parallel, &p.workers, &p.clients} {
		if *knob == 0 {
			*knob = p.procs
		}
	}
	primary := ""
	for _, w := range workloads {
		if w.name == p.workload {
			primary = w.product
		}
	}
	switch {
	case primary == "":
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", p.workload)
		return 2
	case *trace != 0 && *trace != 1:
		fmt.Fprintf(os.Stderr, "perfbench: --trace must be 0 or 1\n")
		return 2
	case p.seconds < 1 || p.pollMS < 1 || p.hitFrac < 0 || p.hitFrac >= 1:
		fmt.Fprintf(os.Stderr, "perfbench: --seconds and --poll-ms must be positive, --hit-frac in [0,1)\n")
		return 2
	}
	for _, k := range []struct {
		name string
		v    int
	}{{"procs", p.procs}, {"parallel", p.parallel}, {"workers", p.workers}, {"clients", p.clients}} {
		if k.v < 1 || k.v > nproc {
			fmt.Fprintf(os.Stderr, "perfbench: --%s %d outside [1, nproc=%d]\n", k.name, k.v, nproc)
			return 2
		}
	}
	runtime.GOMAXPROCS(p.procs)

	res, err := runBench(p, primary)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		if res == nil {
			return 1
		}
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", jerr)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// runBench sets up, measures and checks every product. It returns a nil
// result when nothing could be measured; a non-nil result with Correct
// false when an output check failed.
func runBench(p params, primary string) (*result, error) {
	if err := checkTree(); err != nil {
		return nil, err
	}
	hdr := &header{}
	hdr.add("workload: %s (product %s), seed %d, measured seconds %d, trace %v", p.workload, primary, p.seed, p.seconds, p.trace)
	hdr.environment(p)

	// Set-up rounds: each builds every product from scratch, warm-up
	// included; setup_s is their median. Only the last round's products
	// are kept.
	var prods []product
	var setupTimes []float64
	for round := 0; round < setupRounds; round++ {
		for _, pr := range prods {
			pr.close()
		}
		t0 := time.Now()
		built, err := buildProducts(p)
		if err != nil {
			for _, pr := range built {
				pr.close()
			}
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
		prods = built
	}
	defer func() {
		for _, pr := range prods {
			pr.close()
		}
	}()
	hdr.add("setup_s rounds: %s", fmtFloats(setupTimes))

	shares := make([]float64, len(prods))
	for i, pr := range prods {
		shares[i] = (1 - primaryShare) / float64(len(prods)-1)
		if pr.name() == primary {
			shares[i] = primaryShare
		}
	}
	total := time.Duration(p.seconds) * time.Second

	var tr *tracer
	metrics := map[string]metric{}
	var runErr error
	if !p.trace {
		var ref []float64
		ref, runErr = interleave(prods, shares, total)
		hdr.add("%s", samples("reference kernel ms (no repository code, timed before every unit)", ref))
		if runErr == nil {
			raw := map[string]metric{}
			for _, pr := range prods {
				for k, v := range pr.endToEnd() {
					raw[k] = v
				}
			}
			hdr.add("end-to-end as the products report them: %s", fmtMetrics(raw))
			metrics = normalize(raw, median(ref))
			metrics["setup_s"] = metric{median(setupTimes), "s"}
		}
	} else {
		tr = newTracer()
		for i, pr := range prods {
			if runErr != nil {
				break
			}
			half := time.Duration(shares[i] * float64(total) / 2)
			if err := unitLoop(half, func() error { return pr.unit(nil) }); err != nil {
				runErr = fmt.Errorf("%s: %w", pr.name(), err)
				break
			}
			plain := pr.endToEnd()
			pr.reset()
			if err := unitLoop(half, func() error { return pr.unit(tr) }); err != nil {
				runErr = fmt.Errorf("%s traced: %w", pr.name(), err)
				break
			}
			hdr.overhead(pr.name(), plain, pr.endToEnd())
			lm, err := pr.layers(tr)
			if err != nil {
				runErr = fmt.Errorf("%s layers: %w", pr.name(), err)
				break
			}
			for k, v := range lm {
				metrics[k] = v
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// runtime.MemStats.Sys grows in whole heap arenas and reads the same
	// on nearly every run; the peak resident set shows what a run touched.
	rss, rssErr := peakRSSMiB()
	if !p.trace && runErr == nil {
		if rssErr != nil {
			runErr = rssErr
		}
		metrics["mem_peak_rss_mib"] = metric{rss, "MiB"}
	}

	if runErr == nil {
		runErr = checkDeclared(metrics, p.trace)
	}
	res := &result{Correct: runErr == nil, Metrics: metrics}
	if runErr == nil {
		for _, pr := range prods {
			if err := pr.verify(); err != nil {
				runErr = fmt.Errorf("%s check: %w", pr.name(), err)
				res.Correct = false
				break
			}
		}
	}
	for _, pr := range prods {
		a, f := pr.ops()
		res.Attempted += a
		res.Failed += f
		for _, l := range pr.header() {
			hdr.add("%s: %s", pr.name(), l)
		}
	}
	errFrac := 0.0
	if res.Attempted > 0 {
		errFrac = float64(res.Failed) / float64(res.Attempted)
	}
	hdr.add("error_frac: %.6g (%d failed of %d attempted)", errFrac, res.Failed, res.Attempted)
	hdr.add("memory at end: runtime Sys %.3f MiB, peak RSS %.3f MiB", float64(ms.Sys)/(1<<20), rss)
	if tr != nil {
		path, err := tr.writeOut(p)
		if err != nil {
			hdr.add("spans: not written: %v", err)
		} else {
			hdr.add("spans: %d written to %s", tr.len(), path)
		}
	}
	hdr.print(os.Stdout)
	if runErr != nil && res.Correct {
		return nil, runErr
	}
	return res, runErr
}

// buildProducts constructs all four products in workload order; the
// constructors carry each product's set-up and warm-up.
func buildProducts(p params) ([]product, error) {
	ctors := map[string]func(params) (product, error){
		"sim": newSimProduct, "mc": newMCProduct, "server": newServerProduct, "func": newFuncProduct,
	}
	var out []product
	for _, w := range workloads {
		pr, err := ctors[w.product](p)
		if err != nil {
			return out, fmt.Errorf("%s: %w", w.product, err)
		}
		out = append(out, pr)
	}
	return out, nil
}

// interleave runs units of every product until total is spent and each
// product has run at least once, always picking the product furthest
// behind its share of the time used so far. The products take turns unit
// by unit, never at the same time, so a slow phase of the machine lands on
// all of them instead of on one.
//
// Before each unit it times a fixed reference kernel that uses no
// repository code; its median is how fast the machine itself ran during
// the measurement (see normalize).
func interleave(prods []product, shares []float64, total time.Duration) (ref []float64, err error) {
	used := make([]time.Duration, len(prods))
	var spent time.Duration
	for spent < total || slices.Contains(used, 0) {
		next := 0
		for i := range prods {
			if float64(used[i])/shares[i] < float64(used[next])/shares[next] {
				next = i
			}
		}
		ref = append(ref, referenceKernel())
		t0 := time.Now()
		if err := prods[next].unit(nil); err != nil {
			return ref, fmt.Errorf("%s: %w", prods[next].name(), err)
		}
		d := time.Since(t0)
		used[next] += d
		spent += d
	}
	return ref, nil
}

// refNominalMS is the reference kernel's median time on the 2-vCPU Xeon
// box the bounds were set on, in its fast state.
const refNominalMS = 0.70

// normalize rescales the throughputs and latencies of a run to a machine
// whose reference kernel takes refNominalMS. The shared boxes this runs
// on switch speed for minutes at a time (the same binary measured 1.3x to
// 1.8x apart between runs, every product moving together), which no
// number of samples inside one run can average out; the reference kernel
// slows with them, so dividing by its speed removes the machine's share of
// a difference and keeps the program's. Units say so: "ref-ms" is a
// millisecond of the reference machine, "1/ref-s" a rate per such second.
// Metrics a product already states in those units pass through: func
// scales its samples one by one (see funcProduct.hostSlowdown).
func normalize(raw map[string]metric, refMS float64) map[string]metric {
	k := refMS / refNominalMS
	out := map[string]metric{}
	for name, m := range raw {
		switch m.Unit {
		case "ms":
			out[name] = metric{m.Value / k, "ref-ms"}
		case "1/s", "Minstr/s":
			out[name] = metric{m.Value * k, strings.TrimSuffix(m.Unit, "s") + "ref-s"}
		default:
			out[name] = m
		}
	}
	return out
}

// fmtMetrics prints metrics in name order.
func fmtMetrics(ms map[string]metric) string {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	parts := make([]string, len(names))
	for i, k := range names {
		parts[i] = fmt.Sprintf("%s %.6g %s", k, ms[k].Value, ms[k].Unit)
	}
	return strings.Join(parts, "; ")
}

// refTable is the reference kernels' lookup table: 64 KiB, cache-resident.
var refTable = func() []uint64 {
	t := make([]uint64, 8192)
	for i := range t {
		t[i] = uint64(i) * 0x9E3779B97F4A7C15
	}
	return t
}()

var refSink uint64

// referenceKernel runs a fixed mix of independent integer chains and
// table lookups and returns its time in milliseconds.
func referenceKernel() float64 {
	t0 := time.Now()
	a, b, c, d := uint64(1), uint64(2), uint64(3), uint64(4)
	for i := 0; i < 100_000; i++ {
		a = a*6364136223846793005 + refTable[b&8191]
		b ^= b<<13 ^ a>>7
		c = c*2862933555777941757 + refTable[d&8191]
		d ^= d<<17 ^ c>>9
	}
	refSink += a ^ b ^ c ^ d
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// wideKernel runs iters rounds of eight independent xorshift chains with
// table lookups, enough to fill the core's issue slots, and returns its
// time in milliseconds.
func wideKernel(iters int) float64 {
	t0 := time.Now()
	var s [8]uint64
	for i := range s {
		s[i] = uint64(i + 1)
	}
	for i := 0; i < iters; i++ {
		for j := range s {
			s[j] ^= s[j] << 13
			s[j] ^= s[j] >> 7
			s[j] += refTable[s[j]&8191]
		}
	}
	for _, v := range s {
		refSink += v
	}
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// unitLoop calls unit until budget is spent: once, then again while the
// budget left holds at least half of the last unit, so a run overshoots
// its budget by half a unit at most.
func unitLoop(budget time.Duration, unit func() error) error {
	deadline := time.Now().Add(budget)
	for {
		t0 := time.Now()
		if err := unit(); err != nil {
			return err
		}
		if !time.Now().Add(time.Since(t0) / 2).Before(deadline) {
			return nil
		}
	}
}

// checkTree fails fast outside a repository checkout: the benchmark
// drives the repository's packages and reads its golden files.
func checkTree() error {
	for _, f := range []string{"go.mod", "internal/experiments/testdata"} {
		if _, err := os.Stat(f); err != nil {
			return fmt.Errorf("not a repository checkout (run from the root): %w", err)
		}
	}
	return nil
}

// checkDeclared requires the metrics a run prints to be exactly the ones
// BENCHMARK.json declares for its mode, with the declared units, and the
// per-layer ones to be exactly those perfbench/layers.json maps.
func checkDeclared(metrics map[string]metric, traced bool) error {
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	var layers struct {
		Layers []struct{ Metric string } `json:"layers"`
	}
	for _, f := range []struct {
		path string
		v    any
	}{{"BENCHMARK.json", &decl}, {filepath.Join("perfbench", "layers.json"), &layers}} {
		b, err := os.ReadFile(f.path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(b, f.v); err != nil {
			return fmt.Errorf("%s: %w", f.path, err)
		}
	}
	want := decl.EndToEnd
	if traced {
		want = decl.PerLayer
		if len(layers.Layers) != len(want) {
			return fmt.Errorf("layers.json maps %d metrics, BENCHMARK.json declares %d", len(layers.Layers), len(want))
		}
		for i, l := range layers.Layers {
			if l.Metric != want[i].Name {
				return fmt.Errorf("layers.json entry %d is %s, BENCHMARK.json has %s", i, l.Metric, want[i].Name)
			}
		}
	}
	if len(metrics) != len(want) {
		return fmt.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(metrics), len(want))
	}
	for _, w := range want {
		m, ok := metrics[w.Name]
		if !ok || m.Unit != w.Unit {
			return fmt.Errorf("metric %s: printed %+v, declared unit %s", w.Name, m, w.Unit)
		}
		// An end-to-end metric of 0 means its product ran no unit.
		if !traced && !(m.Value > 0 && !math.IsInf(m.Value, 0)) {
			return fmt.Errorf("metric %s has no samples (value %v): measure for longer", w.Name, m.Value)
		}
	}
	return nil
}

// header collects the environment lines printed before the result.
type header struct{ lines []string }

func (h *header) add(format string, args ...any) {
	h.lines = append(h.lines, fmt.Sprintf(format, args...))
}

func (h *header) print(w io.Writer) {
	for _, l := range h.lines {
		fmt.Fprintf(w, "# %s\n", l)
	}
}

// environment records what the numbers were measured on.
func (h *header) environment(p params) {
	h.add("commit: %s", commitID())
	h.add("go: %s, GOMAXPROCS %d, nproc %d, cpu %q", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel())
	h.add("load: parallel %d, server workers %d, closed loop of %d clients, poll every %d ms, hit share %.2f, set-up rounds %d",
		p.parallel, p.workers, p.clients, p.pollMS, p.hitFrac, setupRounds)
}

// overhead states how much the traced pass of a product differs from its
// untraced pass, metric by metric.
func (h *header) overhead(prod string, plain, traced map[string]metric) {
	names := make([]string, 0, len(plain))
	for k := range plain {
		names = append(names, k)
	}
	sort.Strings(names)
	var parts []string
	for _, k := range names {
		a, b := plain[k].Value, traced[k].Value
		if a == 0 {
			continue
		}
		parts = append(parts, fmt.Sprintf("%s %.4g -> %.4g (%+.1f%%)", k, a, b, 100*(b-a)/a))
	}
	h.add("tracing overhead %s: %s", prod, strings.Join(parts, "; "))
}

// commitID names the source tree: the git commit when the checkout has
// one, otherwise a digest of the Go sources and goldens the benchmark
// runs against.
func commitID() string {
	if head, err := os.ReadFile(".git/HEAD"); err == nil {
		ref := strings.TrimSpace(string(head))
		if rest, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(".git", rest)); err == nil {
				return strings.TrimSpace(string(id))
			}
		}
		return ref
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".golden") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMiB reads the process's peak resident set size (VmHWM).
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(l, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile of xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// tailPercentile returns the highest of the usual percentiles that leaves
// at least ten samples beyond it, with its value; ok is false when there
// are too few samples for any.
func tailPercentile(xs []float64) (pct, value float64, ok bool) {
	for _, p := range []float64{99.9, 99, 95, 90, 75, 50} {
		if float64(len(xs))*(1-p/100) >= 10 {
			return p, quantile(xs, p/100), true
		}
	}
	return 0, 0, false
}

// samples describes the per-unit samples behind a metric.
func samples(name string, xs []float64) string {
	return fmt.Sprintf("%s n=%d q1 %.5g median %.5g q3 %.5g", name, len(xs), quantile(xs, 0.25), median(xs), quantile(xs, 0.75))
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// digest is a short content hash for the output-consistency checks.
func digest(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digestLog keeps the first digest seen for each key and reports any
// later pass that disagrees.
type digestLog struct {
	first  map[string]string
	passes int
}

func (d *digestLog) check(key, sum string) error {
	if d.first == nil {
		d.first = map[string]string{}
	}
	d.passes++
	if prev, ok := d.first[key]; ok && prev != sum {
		return fmt.Errorf("output of %s changed between passes: %s then %s", key, prev, sum)
	}
	d.first[key] = sum
	return nil
}

// summary prints the digests in key order.
func (d *digestLog) summary() string {
	keys := make([]string, 0, len(d.first))
	for k := range d.first {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = k + "=" + d.first[k]
	}
	return fmt.Sprintf("%d passes agree: %s", d.passes, strings.Join(parts, " "))
}
