package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed interval: a call into a layer, or a batch of calls
// replayed through it. Busy is the time the layer itself was working
// inside [Start, End]; it equals End-Start except for segmented batches,
// where several layers take turns inside one replay and each child span
// carries its own share.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Busy   int64  `json:"busy_ns"`
	Calls  int64  `json:"calls"`
}

// tracer keeps spans in memory; they are written out once, at exit. A nil
// tracer records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: now, End: -1, Calls: 1})
	return len(t.spans)
}

// end closes span id, recording how many calls it covered.
func (t *tracer) end(id int, calls int64) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End, s.Busy, s.Calls = now, now-s.Start, calls
}

// segment records a child of parent that was busy for busy out of the
// parent's interval, over calls calls.
func (t *tracer) segment(name string, parent int, busy time.Duration, calls int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	p := t.spans[parent-1]
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: p.Start, End: p.End, Busy: busy.Nanoseconds(), Calls: calls})
}

// durations returns the busy time of every closed span named name, in
// the given unit.
func (t *tracer) durations(name string, unit time.Duration) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.Busy)/float64(unit))
		}
	}
	return out
}

// perCall returns the busy time per call, in nanoseconds, summed over
// every span named name.
func (t *tracer) perCall(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var busy, calls int64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			busy += s.Busy
			calls += s.Calls
		}
	}
	if calls == 0 {
		return 0
	}
	return float64(busy) / float64(calls)
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// writeOut writes the spans as JSON lines under .bench_build/perfbench.
func (t *tracer) writeOut(p params) (string, error) {
	dir := filepath.Join(".bench_build", "perfbench")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", p.workload, p.seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	t.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}

// segTimer times a replay in which several layers take turns: it reads
// the clock only when the kind of call changes, so calls far cheaper than
// a clock read can still be attributed. Each segment's total includes one
// clock read, which finish subtracts using a calibrated cost.
type segTimer struct {
	kind  int
	last  time.Time
	busy  []time.Duration
	calls []int64
	segs  []int64
}

func newSegTimer(kinds int) *segTimer {
	return &segTimer{busy: make([]time.Duration, kinds), calls: make([]int64, kinds),
		segs: make([]int64, kinds), kind: -1}
}

// enter notes that the next call is of kind k.
func (s *segTimer) enter(k int) {
	if k != s.kind {
		now := time.Now()
		if s.kind >= 0 {
			s.busy[s.kind] += now.Sub(s.last)
			s.segs[s.kind]++
		}
		s.kind, s.last = k, now
	}
	s.calls[k]++
}

// finish closes the last segment and removes the clock-read cost.
func (s *segTimer) finish() {
	if s.kind >= 0 {
		s.busy[s.kind] += time.Since(s.last)
		s.segs[s.kind]++
		s.kind = -1
	}
	c := clockCost()
	for k := range s.busy {
		s.busy[k] -= time.Duration(float64(s.segs[k]) * c)
		if s.busy[k] < 0 {
			s.busy[k] = 0
		}
	}
}

var clockOnce sync.Once
var clockNS float64

// clockCost is the measured cost of one time.Now call, in nanoseconds.
func clockCost() float64 {
	clockOnce.Do(func() {
		const n = 200_000
		t0 := time.Now()
		var sink time.Time
		for i := 0; i < n; i++ {
			sink = time.Now()
		}
		clockNS = float64(sink.Sub(t0).Nanoseconds()) / n
	})
	return clockNS
}
