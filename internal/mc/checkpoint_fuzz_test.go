package mc

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"arcc/internal/stats"
)

// The jobs below are small enough to run once per fuzz input: a
// MapScratch job of 6 trials in 3 shards and a weighted job of 12 trials
// in 3 shards with one sketched dimension. executed counts the trial
// bodies that ran, so a resumed run reveals how many trials its
// checkpoint restored.

type fuzzCell struct {
	V float64
	N int
}

const (
	fuzzMapTrials      = 6
	fuzzMapShardSize   = 2
	fuzzWeightedTrials = 12
	fuzzWeightedShard  = 4
	fuzzSeed           = 31
)

func runFuzzMap(resume *Checkpoint, sink func(*Checkpoint), executed *atomic.Int64) []fuzzCell {
	opts := Options{Parallelism: 1, ShardSize: fuzzMapShardSize}
	if resume != nil || sink != nil {
		opts.Checkpoint = &CheckpointConfig{Resume: resume, Sink: sink}
	}
	return MapScratch(fuzzMapTrials, fuzzSeed, opts, func() struct{} { return struct{}{} },
		func(rng *rand.Rand, trial int, _ struct{}) fuzzCell {
			executed.Add(1)
			return fuzzCell{V: rng.Float64(), N: trial}
		})
}

func fuzzWeightedJob(executed *atomic.Int64) WeightedJob {
	return WeightedJob{
		Trials:     fuzzWeightedTrials,
		Seed:       fuzzSeed,
		Dims:       2,
		SketchDims: []int{1},
		SketchK:    4,
		Trial: func(rng *rand.Rand, _ int, _ any, vals []float64) float64 {
			executed.Add(1)
			for i := range vals {
				vals[i] = rng.ExpFloat64()
			}
			return 0.5 + rng.Float64()
		},
	}
}

func runFuzzWeighted(resume *Checkpoint, sink func(*Checkpoint), executed *atomic.Int64) *WeightedSet {
	opts := Options{Parallelism: 1, ShardSize: fuzzWeightedShard}
	if resume != nil || sink != nil {
		opts.Checkpoint = &CheckpointConfig{Resume: resume, Sink: sink}
	}
	return RunWeighted(fuzzWeightedJob(executed), opts)
}

// fullSnapshot returns the final checkpoint of an uninterrupted run.
func fullSnapshot(run func(*Checkpoint, func(*Checkpoint), *atomic.Int64)) *Checkpoint {
	var last *Checkpoint
	var executed atomic.Int64
	run(nil, func(cp *Checkpoint) { last = cp }, &executed)
	return last
}

func mapRun(resume *Checkpoint, sink func(*Checkpoint), executed *atomic.Int64) {
	runFuzzMap(resume, sink, executed)
}

func weightedRun(resume *Checkpoint, sink func(*Checkpoint), executed *atomic.Int64) {
	runFuzzWeighted(resume, sink, executed)
}

// gobBlob gob-encodes v, failing the test on error.
func gobBlob(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCheckpointRejectsForeignMapShard: a map snapshot whose indexes lie
// outside its shard, or whose index and value lists differ in length,
// must re-run instead of reaching collectMap.
func TestCheckpointRejectsForeignMapShard(t *testing.T) {
	var executed atomic.Int64
	want := runFuzzMap(nil, nil, &executed)
	good := fullSnapshot(mapRun)
	for name, blob := range map[string][]byte{
		"index out of range": gobBlob(t, mapAccWire[fuzzCell]{Idx: []int{999999}, Vals: []fuzzCell{{V: 1}}}),
		"index of another shard": gobBlob(t, mapAccWire[fuzzCell]{Idx: []int{0, 1},
			Vals: []fuzzCell{{V: 1}, {V: 2}}}),
		"fewer indexes than values": gobBlob(t, mapAccWire[fuzzCell]{Idx: []int{2},
			Vals: []fuzzCell{{V: 1}, {V: 2}}}),
		"too few trials": gobBlob(t, mapAccWire[fuzzCell]{Idx: []int{2}, Vals: []fuzzCell{{V: 1}}}),
		"shard 0's blob": good.Shards[0],
	} {
		executed.Store(0)
		cp := &Checkpoint{Trials: fuzzMapTrials, Seed: fuzzSeed, ShardSize: fuzzMapShardSize, Shards: map[int][]byte{1: blob}}
		got := runFuzzMap(cp, nil, &executed)
		if executed.Load() != fuzzMapTrials {
			t.Errorf("%s: restored %d trials, want the blob rejected", name, fuzzMapTrials-executed.Load())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: resumed result %v, want %v", name, got, want)
		}
	}
}

// TestCheckpointRejectsMisshapenWeightedShard: a weighted snapshot from a
// job of another shape must re-run instead of panicking in Merge.
func TestCheckpointRejectsMisshapenWeightedShard(t *testing.T) {
	var executed atomic.Int64
	want := runFuzzWeighted(nil, nil, &executed)

	other := func(edit func(*WeightedJob)) []byte {
		job := fuzzWeightedJob(&executed)
		job.Trials = fuzzWeightedShard
		edit(&job)
		return gobBlob(t, RunWeighted(job, Options{Parallelism: 1}))
	}
	nilSketch := other(func(*WeightedJob) {})
	var set WeightedSet
	if err := gob.NewDecoder(bytes.NewReader(nilSketch)).Decode(&set); err != nil {
		t.Fatal(err)
	}
	set.Sketches = nil
	for name, blob := range map[string][]byte{
		"more dims":         other(func(j *WeightedJob) { j.Dims = 3 }),
		"fewer dims":        other(func(j *WeightedJob) { j.Dims = 1; j.SketchDims = []int{0} }),
		"other sketch dim":  other(func(j *WeightedJob) { j.SketchDims = []int{0} }),
		"no sketches":       other(func(j *WeightedJob) { j.SketchDims = nil }),
		"other sketch K":    other(func(j *WeightedJob) { j.SketchK = 8 }),
		"fewer trials":      other(func(j *WeightedJob) { j.Trials = 3 }),
		"sketches dropped":  gobBlob(t, &set),
		"empty set":         gobBlob(t, &WeightedSet{}),
		"sketch weight off": gobBlob(t, &WeightedSet{Dims: make([]stats.Weighted, 2), SketchDims: []int{1}, Sketches: []*stats.QuantileSketch{{K: 4, N: 4}}}),
	} {
		executed.Store(0)
		cp := &Checkpoint{Trials: fuzzWeightedTrials, Seed: fuzzSeed, ShardSize: fuzzWeightedShard, Shards: map[int][]byte{1: blob}}
		got := runFuzzWeighted(cp, nil, &executed)
		if executed.Load() != fuzzWeightedTrials {
			t.Errorf("%s: restored %d trials, want the blob rejected", name, fuzzWeightedTrials-executed.Load())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: resumed result differs from an uninterrupted run", name)
		}
	}
}

// FuzzCheckpointResume feeds arbitrary bytes as one shard's checkpoint
// blob to a MapScratch job and to a weighted job. Neither may panic or
// hang, and a run whose blob is rejected must equal an uninterrupted run.
// A blob that is accepted must round-trip: its state re-encodes to bytes
// that decode to the same state (gob ignores wire type names and accepts
// non-minimal integers, so many byte strings decode to one state and the
// input itself need not be the canonical encoding), and resuming from
// the re-encoded blob must give the same result as resuming from the
// original.
func FuzzCheckpointResume(f *testing.F) {
	for _, cp := range []*Checkpoint{fullSnapshot(mapRun), fullSnapshot(weightedRun)} {
		for s, blob := range cp.Shards {
			f.Add(blob, uint8(s))
		}
	}
	f.Add([]byte{}, uint8(0))
	f.Add([]byte{0x0c, 0xff, 0x81, 0x02, 0x01}, uint8(2))

	var executed atomic.Int64
	wantMap := gobBlob(f, runFuzzMap(nil, nil, &executed))
	wantWeighted := gobBlob(f, runFuzzWeighted(nil, nil, &executed))

	f.Fuzz(func(t *testing.T, blob []byte, shard uint8) {
		s := int(shard % 3)
		resume := func(trials, size int, blob []byte) *Checkpoint {
			return &Checkpoint{Trials: trials, Seed: fuzzSeed, ShardSize: size, Shards: map[int][]byte{s: blob}}
		}

		executed.Store(0)
		got := gobBlob(t, runFuzzMap(resume(fuzzMapTrials, fuzzMapShardSize, blob), nil, &executed))
		if executed.Load() == fuzzMapTrials {
			if !bytes.Equal(got, wantMap) {
				t.Fatal("map job: blob rejected, but result differs from an uninterrupted run")
			}
		} else {
			again := reencode(t, "map job", &mapAcc[fuzzCell]{}, &mapAcc[fuzzCell]{}, blob)
			if !bytes.Equal(gobBlob(t, runFuzzMap(resume(fuzzMapTrials, fuzzMapShardSize, again), nil, &executed)), got) {
				t.Fatal("map job: resuming from the re-encoded blob gives another result")
			}
		}

		executed.Store(0)
		job := fuzzWeightedJob(&executed)
		got = gobBlob(t, runFuzzWeighted(resume(fuzzWeightedTrials, fuzzWeightedShard, blob), nil, &executed))
		if executed.Load() == fuzzWeightedTrials {
			if !bytes.Equal(got, wantWeighted) {
				t.Fatal("weighted job: blob rejected, but result differs from an uninterrupted run")
			}
		} else {
			again := reencode(t, "weighted job", newWeightedAcc(&job), newWeightedAcc(&job), blob)
			if !bytes.Equal(gobBlob(t, runFuzzWeighted(resume(fuzzWeightedTrials, fuzzWeightedShard, again), nil, &executed)), got) {
				t.Fatal("weighted job: resuming from the re-encoded blob gives another result")
			}
		}
	})
}

// reencode decodes an accepted blob into acc, re-encodes it, and requires
// the re-encoding to be a fixed point: decoding it into fresh and
// encoding again yields the same bytes. It returns the re-encoding.
func reencode(t *testing.T, job string, acc, fresh checkpointable, blob []byte) []byte {
	t.Helper()
	if err := acc.UnmarshalBinary(blob); err != nil {
		t.Fatalf("%s: restored a blob that does not decode: %v", job, err)
	}
	again, err := acc.MarshalBinary()
	if err != nil {
		t.Fatalf("%s: accepted state does not re-encode: %v", job, err)
	}
	if err := fresh.UnmarshalBinary(again); err != nil {
		t.Fatalf("%s: re-encoded state does not decode: %v", job, err)
	}
	third, err := fresh.MarshalBinary()
	if err != nil || !bytes.Equal(third, again) {
		t.Fatalf("%s: re-encoding is not stable: %x then %x (%v)", job, again, third, err)
	}
	return again
}
