package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sync"
	"time"

	"arcc/internal/exhibit"
	"arcc/internal/experiments"
	"arcc/internal/server"
)

// jobReq is one request of the seeded job stream.
type jobReq struct {
	key      string // identity: equal keys must get equal result bytes
	exhibit  string
	scenario json.RawMessage
	seed     int64
	trials   int
	body     []byte
}

// serverProduct drives an in-process arcc-server over a loopback
// listener with a closed loop of clients. Each client POSTs a job, polls
// its status at a fixed interval until it is done, GETs the result, and
// only then sends its next job. The stream mixes fresh quick jobs (cache
// misses that run an exhibit or a small scenario) with repeats of earlier
// requests (cache hits, or coalesced onto an identical job in flight).
type serverProduct struct {
	p      params
	srv    *server.Server
	hs     *http.Server
	served chan struct{}
	base   string
	client *http.Client

	mu      sync.Mutex
	rng     *rand.Rand
	history []jobReq
	fresh   int
	drawn   int
	repeats int
	results map[string][]byte
	misses  []jobReq // fresh requests, in submission order

	lat        []float64 // ms, submit to result
	polls      []float64
	queueRun   []float64 // ms, server-side created to finished, jobs that ran
	elapsed    time.Duration
	completed  int64
	submitted  int64
	m0         server.Metrics
	mismatches []string

	attempted, failed int64
}

func newServerProduct(p params) (product, error) {
	srv, err := server.New(server.Options{Workers: p.workers, Logf: func(string, ...any) {}})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	s := &serverProduct{
		p: p, srv: srv, served: make(chan struct{}),
		hs:      &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:    "http://" + ln.Addr().String(),
		rng:     rand.New(rand.NewSource(p.seed)),
		results: map[string][]byte{},
		client: &http.Client{Timeout: time.Minute,
			Transport: &http.Transport{MaxIdleConnsPerHost: p.clients, MaxConnsPerHost: p.clients}},
	}
	go func() {
		defer close(s.served)
		_ = s.hs.Serve(ln)
	}()
	// Warm-up: one job of each kind, with seeds the stream never draws.
	for k := 0; k < 2; k++ {
		if err := s.do(s.newReq(k, p.seed*1_000_000+900_000+int64(k)), nil); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	s.reset()
	s.m0 = srv.Metrics()
	return s, nil
}

// newReq builds a fresh quick request of kind k: Fig 7.1 (24 simulator
// runs) for kind 0, a small lifetime scenario otherwise.
func (s *serverProduct) newReq(kind int, seed int64) jobReq {
	r := jobReq{seed: seed}
	if kind == 0 {
		r.exhibit = "f7.1"
	} else {
		r.scenario = json.RawMessage(`{"name": "job-lifetime", "years": 7}`)
		r.trials = 2_000
	}
	body := map[string]any{"seed": seed, "quick": true, "parallel": 1, "format": "text"}
	if r.exhibit != "" {
		body["exhibit"] = r.exhibit
	} else {
		body["scenario"] = r.scenario
		body["trials"] = r.trials
	}
	r.body, _ = json.Marshal(body)
	r.key = string(r.body)
	return r
}

// nextReq draws the next request of the seeded stream. The shares are
// exact rather than drawn — a repeat whenever the running count of
// repeats falls below hitFrac of all requests, and every third fresh job
// a Fig 7.1 — so the mix, which sets the load, is the same at every seed;
// the seed picks which earlier request a repeat names and the seeds of
// the fresh jobs.
func (s *serverProduct) nextReq() jobReq {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.drawn++
	if len(s.history) > 0 && float64(s.repeats) < s.p.hitFrac*float64(s.drawn) {
		s.repeats++
		return s.history[s.rng.Intn(len(s.history))]
	}
	s.fresh++
	r := s.newReq(s.fresh%3, s.p.seed*1_000_000+int64(s.fresh))
	s.history = append(s.history, r)
	s.misses = append(s.misses, r)
	return r
}

func (s *serverProduct) name() string { return "server" }

// serverBurst is how long one unit keeps the clients sending. A burst
// ends when every client's last job has completed, so its elapsed time
// includes that drain.
const serverBurst = 250 * time.Millisecond

// unit runs the closed loop of clients for one burst.
func (s *serverProduct) unit(tr *tracer) error {
	start := time.Now()
	deadline := start.Add(serverBurst)
	var wg sync.WaitGroup
	errs := make([]error, s.p.clients)
	for c := 0; c < s.p.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || time.Now().Before(deadline); first = false {
				if err := s.do(s.nextReq(), tr); err != nil {
					errs[c] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	s.elapsed += time.Since(start)
	if err := errors.Join(errs...); err != nil {
		return err
	}
	if len(s.mismatches) > 0 {
		return fmt.Errorf("repeated requests got different bytes: %v", s.mismatches)
	}
	return nil
}

// do runs one job through the HTTP API. Refused or failed jobs count as
// failed operations; transport errors abort the run.
func (s *serverProduct) do(r jobReq, tr *tracer) error {
	t0 := time.Now()
	job := tr.begin("server.job", 0)
	id := tr.begin("server.POST", job)
	resp, err := s.client.Post(s.base+"/v1/jobs", "application/json", bytes.NewReader(r.body))
	if err != nil {
		return err
	}
	st, code, err := readStatus(resp)
	tr.end(id, 1)
	s.count(1, 0)
	if err != nil {
		return err
	}
	if code != http.StatusCreated && code != http.StatusAccepted {
		s.count(0, 1)
		return nil
	}
	polls := 0
	for st.State == server.StateQueued || st.State == server.StateRunning {
		time.Sleep(time.Duration(s.p.pollMS) * time.Millisecond)
		id = tr.begin("server.poll", job)
		resp, err := s.client.Get(s.base + "/v1/jobs/" + st.ID)
		if err != nil {
			return err
		}
		st, code, err = readStatus(resp)
		tr.end(id, 1)
		if err != nil {
			return err
		}
		polls++
	}
	if st.State != server.StateDone {
		s.count(0, 1)
		return nil
	}
	id = tr.begin("server.GET result", job)
	resp, err = s.client.Get(s.base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		return err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(id, 1)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		s.count(0, 1)
		return nil
	}
	lat := time.Since(t0)
	tr.end(job, 1)

	s.mu.Lock()
	defer s.mu.Unlock()
	s.completed++
	s.lat = append(s.lat, float64(lat)/float64(time.Millisecond))
	s.polls = append(s.polls, float64(polls))
	if !st.Cached && !st.Coalesced {
		if c, f, ok := serverSpan(st); ok {
			s.queueRun = append(s.queueRun, float64(f.Sub(c))/float64(time.Millisecond))
		}
	}
	if prev, ok := s.results[r.key]; !ok {
		s.results[r.key] = body
	} else if !bytes.Equal(prev, body) {
		s.mismatches = append(s.mismatches, r.key)
	}
	return nil
}

func (s *serverProduct) count(attempted, failed int64) {
	s.mu.Lock()
	s.attempted += attempted
	s.failed += failed
	s.submitted += attempted
	s.mu.Unlock()
}

// readStatus decodes a job status response.
func readStatus(resp *http.Response) (server.JobStatus, int, error) {
	defer resp.Body.Close()
	var st server.JobStatus
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, resp.StatusCode, err
	}
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(b, &st); err != nil {
			return st, resp.StatusCode, fmt.Errorf("decoding job status: %w", err)
		}
	}
	return st, resp.StatusCode, nil
}

// serverSpan returns the job's server-side creation and finish times.
func serverSpan(st server.JobStatus) (created, finished time.Time, ok bool) {
	c, err1 := time.Parse(time.RFC3339Nano, st.Created)
	f, err2 := time.Parse(time.RFC3339Nano, st.Finished)
	return c, f, err1 == nil && err2 == nil
}

// jobTailPct is the percentile job_tail_ms reports. It is fixed rather
// than the highest one with ten samples beyond it, which would move from
// p95 to p99 as a run completes 1000 jobs or more; a faster server would
// then read as a slower tail. A 30-second run completes more than 600 jobs
// even when server-jobs is not its workload, which leaves at least 30
// samples beyond p95.
const jobTailPct = 95

func (s *serverProduct) endToEnd() map[string]metric {
	return map[string]metric{
		"job_p50_ms":  {median(s.lat), "ms"},
		"job_tail_ms": {quantile(s.lat, jobTailPct/100.0), "ms"},
		"jobs_per_s":  {float64(s.completed) / s.elapsed.Seconds(), "1/s"},
	}
}

func (s *serverProduct) reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lat, s.polls, s.queueRun = nil, nil, nil
	s.elapsed, s.completed, s.submitted = 0, 0, 0
	s.m0 = s.srv.Metrics()
}

func (s *serverProduct) ops() (int64, int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.attempted, s.failed
}

func (s *serverProduct) header() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.srv.Metrics()
	return []string{
		fmt.Sprintf("workers %d, closed loop of %d clients, poll %d ms, hit share %.2f, fresh jobs 1/3 f7.1 quick, 2/3 lifetime scenario of 2000 trials, at parallel 1",
			s.p.workers, s.p.clients, s.p.pollMS, s.p.hitFrac),
		fmt.Sprintf("last pass: %d jobs completed in %.3f s; job_tail_ms is p%d = %.3f ms over %d samples, %d beyond it; %d distinct requests; server totals: run %d, cache hits %d, coalesced %d",
			s.completed, s.elapsed.Seconds(), jobTailPct, quantile(s.lat, jobTailPct/100.0), len(s.lat), len(s.lat)*(100-jobTailPct)/100,
			len(s.results), m.JobsRun, m.CacheHits, m.JobsCoalesced),
	}
}

func (s *serverProduct) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx)
	<-s.served
	_ = s.srv.Shutdown(ctx)
	s.client.CloseIdleConnections()
}

// inProcess runs r's exhibit in this process under the configuration
// the server derives from the request, rendered as text.
func inProcess(r jobReq) ([]byte, error) {
	ex, ok := exhibit.Lookup(r.exhibit)
	if r.exhibit == "" {
		sc, err := exhibit.ParseScenario(bytes.NewReader(r.scenario))
		if err != nil {
			return nil, err
		}
		if ex, err = experiments.NewScenarioExhibit(sc); err != nil {
			return nil, err
		}
	} else if !ok {
		return nil, fmt.Errorf("exhibit %s not registered", r.exhibit)
	}
	cfg := exhibit.NewConfig(exhibit.WithQuick(true), exhibit.WithSeed(r.seed), exhibit.WithParallel(1), exhibit.WithTrials(r.trials))
	rep, err := ex.Run(context.Background(), cfg)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	err = exhibit.TextRenderer{}.Render(&out, rep)
	return out.Bytes(), err
}

// sample picks up to n distinct fresh requests, spread over the stream.
func (s *serverProduct) sample(n int) []jobReq {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []jobReq
	for i := 0; i < n && i < len(s.misses); i++ {
		out = append(out, s.misses[i*len(s.misses)/min(n, len(s.misses))])
	}
	return out
}

// verify requires the served bytes of a sample of requests to equal an
// in-process run plus render of the same request.
func (s *serverProduct) verify() error {
	for _, r := range s.sample(6) {
		want, err := inProcess(r)
		if err != nil {
			return err
		}
		s.mu.Lock()
		got, ok := s.results[r.key]
		s.mu.Unlock()
		if !ok {
			return fmt.Errorf("no served result for %s", r.key)
		}
		if !bytes.Equal(got, want) {
			return fmt.Errorf("served result differs from the in-process run for %s", r.key)
		}
	}
	return nil
}

// layers times the same fresh jobs in-process, so the service overhead is
// queue_run - direct, and reports the admit, result and poll costs and
// the cache behaviour seen in the traced pass.
func (s *serverProduct) layers(tr *tracer) (map[string]metric, error) {
	for _, r := range s.sample(12) {
		id := tr.begin("exhibit.direct", 0)
		if _, err := inProcess(r); err != nil {
			return nil, err
		}
		tr.end(id, 1)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	m := s.srv.Metrics()
	sub := float64(s.submitted)
	return map[string]metric{
		"server.admit_ms":        {median(tr.durations("server.POST", time.Millisecond)), "ms"},
		"server.result_ms":       {median(tr.durations("server.GET result", time.Millisecond)), "ms"},
		"server.cache_hit_ratio": {float64(m.CacheHits-s.m0.CacheHits) / sub, "ratio"},
		"server.coalesced_ratio": {float64(m.JobsCoalesced-s.m0.JobsCoalesced) / sub, "ratio"},
		"server.queue_run_ms":    {median(s.queueRun), "ms"},
		"server.polls_per_job":   {mean(s.polls), "count"},
		"exhibit.direct_ms":      {median(tr.durations("exhibit.direct", time.Millisecond)), "ms"},
	}, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var t float64
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}
