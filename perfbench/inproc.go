package main

import (
	"context"
	"strconv"
	"sync"
	"time"

	"dramdig"
	"dramdig/internal/addr"
	"dramdig/internal/source"
)

// sourceClock counts and times the calls the engine makes into a source.
type sourceClock struct {
	openStart, openEnd int64
	pairNs             int64
	pairs              int64
}

// timedSource wraps a source so Open is timed and MeasurePair counted and
// timed. It forwards SuggestedToolSeed, so a strict replay keeps its
// recorded tool seed; a source that suggests none yields 0, the engine's
// default.
type timedSource struct {
	source.Source
	c *sourceClock
}

func (s timedSource) SuggestedToolSeed() int64 {
	if sg, ok := s.Source.(source.SeedSuggester); ok {
		return sg.SuggestedToolSeed()
	}
	return 0
}

func (s timedSource) Open() (source.Run, error) {
	s.c.openStart = time.Now().UnixNano()
	run, err := s.Source.Open()
	s.c.openEnd = time.Now().UnixNano()
	if err != nil {
		return nil, err
	}
	return timedRun{Run: run, c: s.c}, nil
}

type timedRun struct {
	source.Run
	c *sourceClock
}

// pairStride is the sampling interval for timing MeasurePair: reading the
// clock twice around every call would double the cost of a replayed pair,
// so one call in pairStride is timed and stands for the stride.
const pairStride = 16

// clockCost is what an empty timed region reads, subtracted from each
// timed call: a replayed pair costs about as much as the clock itself.
var clockCost = sync.OnceValue(func() int64 {
	d := make([]float64, 4096)
	for i := range d {
		t0 := time.Now()
		d[i] = float64(time.Since(t0))
	}
	return int64(median(d))
})

func (r timedRun) MeasurePair(a, b addr.Phys, rounds int) float64 {
	r.c.pairs++
	if r.c.pairs%pairStride != 0 {
		return r.Run.MeasurePair(a, b, rounds)
	}
	t0 := time.Now()
	v := r.Run.MeasurePair(a, b, rounds)
	r.c.pairNs += pairStride * max(int64(time.Since(t0))-clockCost(), 0)
	return v
}

// runTimed runs the engine over src through the facade, with opts, and
// records the run into tr under parent: an "engine.run" span holding
// "source.open", one span per pipeline phase cut at the engine's progress
// callbacks, and under each phase one span as long as the (sampled) time
// that phase spent inside MeasurePair (named pairSpan). Only the length
// of that last span is measured; where it sits inside its phase does not
// change self times.
func runTimed(ctx context.Context, src dramdig.Source, tr *trace, parent, pairSpan string, opts ...dramdig.EngineOption) (*dramdig.Result, *sourceClock, error) {
	c := &sourceClock{}
	type phase struct {
		name       string
		start, end int64
		pairNs     int64
		stats      dramdig.StepStats
	}
	var done []phase
	var last, lastPair int64
	progress := dramdig.WithProgress(func(step string, st dramdig.StepStats) {
		now := time.Now().UnixNano()
		if last == 0 {
			last = c.openEnd
		}
		done = append(done, phase{step, last, now, c.pairNs - lastPair, st})
		last, lastPair = now, c.pairNs
	})
	start := time.Now().UnixNano()
	res, err := dramdig.Run(ctx, timedSource{Source: src, c: c}, append(opts, progress)...)
	end := time.Now().UnixNano()
	run := tr.add("engine.run", parent, start, end)
	tr.add("source.open", run, c.openStart, c.openEnd)
	for _, p := range done {
		id := tr.add("engine."+p.name, run, p.start, p.end)
		tr.spans[len(tr.spans)-1].Attrs = map[string]string{
			"measurements": strconv.FormatUint(p.stats.Measurements, 10),
			"sim_s":        strconv.FormatFloat(p.stats.SimSeconds, 'g', -1, 64),
		}
		tr.add(pairSpan, id, p.start, min(p.start+p.pairNs, p.end))
	}
	return res, c, err
}
