package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"arcc/internal/exhibit"
	"arcc/internal/experiments"
	"arcc/internal/faultmodel"
	"arcc/internal/mc"
	"arcc/internal/reliability"
	"arcc/internal/stats"
)

// mcTrials is the Monte Carlo channel count of one lifetime scenario run.
// Each run executes two trial bodies per channel (the faulty-page series
// and the overhead series), so a run is 2*mcTrials trials.
const mcTrials = 100_000

// mcScenario is a no-mix lifetime scenario at field rates: two 18-device
// ranks over seven years.
const mcScenario = `{"name": "perfbench-lifetime", "rate_factor": 1, "ranks": 2, "devices_per_rank": 18, "years": 7, "trials": 100000}`

// mcProduct runs the lifetime scenario once on the plain path and once
// with conditional acceleration (the weighted path with CI, ESS and
// quantile sketch), through the scenario exhibit and the text renderer.
type mcProduct struct {
	p  params
	sc exhibit.Scenario
	ex exhibit.Exhibit

	rates   [2][]float64 // trials per second, one sample per run: [plain, conditional]
	passes  int
	digests digestLog

	attempted, failed int64
	essFrac           float64
}

var mcAccels = []string{"", "conditional"}

func newMCProduct(p params) (product, error) {
	sc, err := exhibit.ParseScenario(strings.NewReader(mcScenario))
	if err != nil {
		return nil, err
	}
	ex, err := experiments.NewScenarioExhibit(sc)
	if err != nil {
		return nil, err
	}
	m := &mcProduct{p: p, sc: sc, ex: ex}
	// Warm-up: both paths on a small trial count.
	for _, accel := range mcAccels {
		cfg := exhibit.NewConfig(exhibit.WithSeed(p.seed+1), exhibit.WithParallel(p.parallel),
			exhibit.WithTrials(2_000), exhibit.WithAccel(accel))
		if _, err := ex.Run(context.Background(), cfg); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return m, nil
}

func (m *mcProduct) name() string { return "mc" }

func (m *mcProduct) unit(tr *tracer) error {
	if err := m.pass(tr); err != nil || tr == nil {
		return err
	}
	return m.direct(tr)
}

// pass runs the scenario once on each path.
func (m *mcProduct) pass(tr *tracer) error {
	for i, accel := range mcAccels {
		label := "plain"
		if accel != "" {
			label = accel
		}
		cfg := exhibit.NewConfig(exhibit.WithSeed(m.p.seed), exhibit.WithParallel(m.p.parallel), exhibit.WithAccel(accel))
		m.attempted++
		id := tr.begin("exhibit.Run scenario "+label, 0)
		t0 := time.Now()
		rep, err := m.ex.Run(context.Background(), cfg)
		var text bytes.Buffer
		if err == nil {
			err = exhibit.TextRenderer{}.Render(&text, rep)
		}
		dt := time.Since(t0).Seconds()
		tr.end(id, 1)
		if err != nil {
			m.failed++
			return fmt.Errorf("scenario %s: %w", label, err)
		}
		m.rates[i] = append(m.rates[i], 2*mcTrials/dt)
		var js bytes.Buffer
		if err := (exhibit.JSONRenderer{}).Render(&js, rep); err != nil {
			return err
		}
		if err := m.digests.check("scenario "+label, digest(text.Bytes(), js.Bytes())); err != nil {
			return err
		}
	}
	m.passes++
	return nil
}

// direct calls the reliability entry points the scenario uses, with a
// span per call, and checks their series stay the same across passes.
func (m *mcProduct) direct(tr *tracer) error {
	ctx := context.Background()
	opts := mc.Options{Parallelism: m.p.parallel}
	rates, shape := m.sc.Rates(), m.sc.Shape()
	factor := m.sc.CostFactor()
	ov := reliability.WorstCaseOverheads(shape, factor)
	years, ranks, devs := m.sc.Years, m.sc.Ranks, m.sc.DevicesPerRank

	id := tr.begin("reliability.call", 0)
	fp, err := reliability.FaultyPageFractionCtx(ctx, m.p.seed, opts, rates, shape, ranks, devs, years, mcTrials)
	tr.end(id, mcTrials)
	if err != nil {
		return err
	}
	id = tr.begin("reliability.call", 0)
	oh, err := reliability.LifetimeOverheadCtx(ctx, m.p.seed+1, opts, rates, ranks, devs, years, mcTrials, ov, factor-1)
	tr.end(id, mcTrials)
	if err != nil {
		return err
	}
	accel, err := reliability.ParseAccel("conditional")
	if err != nil {
		return err
	}
	id = tr.begin("reliability.stats_call", 0)
	fs, err := reliability.FaultyPageFractionStatsCtx(ctx, m.p.seed, opts, rates, shape, ranks, devs, years, mcTrials, accel)
	tr.end(id, mcTrials)
	if err != nil {
		return err
	}
	id = tr.begin("reliability.stats_call", 0)
	os, err := reliability.LifetimeOverheadStatsCtx(ctx, m.p.seed+1, opts, rates, ranks, devs, years, mcTrials, ov, factor-1, accel)
	tr.end(id, mcTrials)
	if err != nil {
		return err
	}
	m.essFrac = fs.ESS / float64(fs.Trials)
	return m.digests.check("reliability direct", digest([]byte(fmt.Sprint(fp, oh, fs.Mean, fs.CI95, fs.ESS, os.Mean, os.CI95, os.ESS))))
}

func (m *mcProduct) endToEnd() map[string]metric {
	return map[string]metric{
		"mc_trials_per_s":          {median(m.rates[0]), "1/s"},
		"mc_weighted_trials_per_s": {median(m.rates[1]), "1/s"},
	}
}

func (m *mcProduct) reset() { m.rates, m.passes = [2][]float64{}, 0 }

func (m *mcProduct) ops() (int64, int64) { return m.attempted, m.failed }

func (m *mcProduct) header() []string {
	return []string{
		fmt.Sprintf("lifetime scenario %s: %d channels x 2 trial bodies per run, plain and conditional, parallel %d; %d passes measured",
			m.sc.Name, mcTrials, m.p.parallel, m.passes),
		samples("mc_trials_per_s", m.rates[0]),
		samples("mc_weighted_trials_per_s", m.rates[1]),
		"digests " + m.digests.summary(),
	}
}

func (m *mcProduct) close() {}

// verify checks the quick-profile goldens of the lifetime exhibits, which
// run the plain reliability/mc path.
func (m *mcProduct) verify() error {
	for _, g := range []struct{ name, file string }{{"f3.1", "fig31_quick_seed1.golden"}, {"f7.4", "fig74_quick_seed1.golden"}} {
		if err := checkGolden(g.name, g.file, m.p.parallel); err != nil {
			return err
		}
	}
	return nil
}

type nopAcc struct{}

func (nopAcc) Merge(mc.Accumulator) {}

// layers times the pieces of a reliability call serially: fault sampling
// and the engine with an empty trial body, batch by batch, and one whole
// serial call, whose per-trial remainder is the trial body's own time.
// The weighted path's samplers, engine and streaming estimators are timed
// the same way.
func (m *mcProduct) layers(tr *tracer) (map[string]metric, error) {
	const n = 200_000
	rates := m.sc.Rates()
	years, ranks, devs := float64(m.sc.Years), m.sc.Ranks, m.sc.DevicesPerRank
	serial := mc.Options{Parallelism: 1}

	rng := rand.New(rand.NewSource(m.p.seed))
	var buf []faultmodel.Arrival
	var arrivals int64
	id := tr.begin("faultmodel.SampleArrivalsInto", 0)
	for i := 0; i < n; i++ {
		buf = faultmodel.SampleArrivalsInto(rng, buf, rates, ranks, devs, years)
		arrivals += int64(len(buf))
	}
	tr.end(id, n)

	id = tr.begin("faultmodel.SampleArrivalsConditionalInto", 0)
	var wsum float64
	for i := 0; i < n; i++ {
		var w float64
		buf, w = faultmodel.SampleArrivalsConditionalInto(rng, buf, rates, ranks, devs, years)
		wsum += w
	}
	tr.end(id, n)
	if wsum <= 0 {
		return nil, fmt.Errorf("conditional sampler returned no weight")
	}

	id = tr.begin("mc.Run", 0)
	mc.Run(mc.Job{Trials: n, Seed: m.p.seed, NewAcc: func() mc.Accumulator { return nopAcc{} },
		NewScratch:   func() any { return nil },
		TrialScratch: func(*rand.Rand, int, mc.Accumulator, any) {}}, serial)
	tr.end(id, n)

	id = tr.begin("mc.RunWeighted", 0)
	mc.RunWeighted(mc.WeightedJob{Trials: n, Seed: m.p.seed, Dims: m.sc.Years,
		Trial: func(*rand.Rand, int, any, []float64) float64 { return 1 }}, serial)
	tr.end(id, n)

	xs, ws := make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i], ws[i] = rng.Float64(), rng.ExpFloat64()
	}
	var est stats.Weighted
	id = tr.begin("stats.Weighted.Add", 0)
	for i := range xs {
		est.Add(xs[i], ws[i])
	}
	tr.end(id, n)
	sk := stats.NewQuantileSketch(0)
	id = tr.begin("stats.QuantileSketch.Add", 0)
	for _, x := range xs {
		sk.Add(x)
	}
	tr.end(id, n)
	if est.N() != n || sk.N != n {
		return nil, fmt.Errorf("streaming estimators lost observations")
	}

	shape := m.sc.Shape()
	id = tr.begin("reliability.call serial", 0)
	if _, err := reliability.FaultyPageFractionCtx(context.Background(), m.p.seed, serial, rates, shape,
		ranks, devs, m.sc.Years, mcTrials); err != nil {
		return nil, err
	}
	tr.end(id, mcTrials)

	sample, engine := tr.perCall("faultmodel.SampleArrivalsInto"), tr.perCall("mc.Run")
	return map[string]metric{
		"reliability.call_ms":              {median(tr.durations("reliability.call", time.Millisecond)), "ms"},
		"reliability.trial_self_ns":        {tr.perCall("reliability.call serial") - sample - engine, "ns"},
		"faultmodel.sample_ns":             {sample, "ns"},
		"faultmodel.arrivals_per_trial":    {float64(arrivals) / n, "count"},
		"mc.engine_ns_per_trial":           {engine, "ns"},
		"faultmodel.sample_conditional_ns": {tr.perCall("faultmodel.SampleArrivalsConditionalInto"), "ns"},
		"mc.weighted_engine_ns_per_trial":  {tr.perCall("mc.RunWeighted"), "ns"},
		"stats.weighted_add_ns":            {tr.perCall("stats.Weighted.Add"), "ns"},
		"stats.sketch_add_ns":              {tr.perCall("stats.QuantileSketch.Add"), "ns"},
		"stats.ess_frac":                   {m.essFrac, "ratio"},
	}, nil
}
