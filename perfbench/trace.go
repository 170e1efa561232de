package main

import (
	"bufio"
	"fmt"
	"os"
	"time"
)

// spanID indexes a tracer's spans; noSpan marks a root.
type spanID int32

const noSpan spanID = -1

// span is one timed call into a layer, made by the benchmark itself:
// the program under test carries no tracing.
type span struct {
	name       string
	start, end time.Duration // since the tracer's epoch
	parent     spanID
	op         int64 // the transaction, block or request the span served
}

// tracer keeps spans in memory until the run ends. It is used from one
// goroutine at a time. A disabled tracer records nothing, so the same
// loop can run untraced to measure what tracing costs.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

// maxSpans bounds the tracer's memory; spans past it are timed but not
// kept, which callers see as noSpan.
const maxSpans = 1 << 20

func newTracer() *tracer { return &tracer{on: true, epoch: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent spanID, op int64) spanID {
	if !t.on || len(t.spans) >= maxSpans {
		return noSpan
	}
	t.spans = append(t.spans, span{name: name, start: time.Since(t.epoch), parent: parent, op: op})
	return spanID(len(t.spans) - 1)
}

// end closes a span opened by begin.
func (t *tracer) end(id spanID) {
	if id != noSpan {
		t.spans[id].end = time.Since(t.epoch)
	}
}

// layerTimes aggregates spans by name: call count, total duration and
// total self time. A span's self time is its duration minus what its
// child spans cover. Children never overlap one another — the benchmark
// makes its calls one at a time — so their coverage is the sum of their
// durations, whether they ran inside the parent's interval or were
// replayed just after it on the same input.
type layerTimes map[string]*layerTime

type layerTime struct {
	n          int
	total, own time.Duration
}

func (t *tracer) layerTimes(from int) layerTimes {
	child := t.childCoverage(from)
	out := layerTimes{}
	for i := from; i < len(t.spans); i++ {
		s := &t.spans[i]
		lt := out[s.name]
		if lt == nil {
			lt = &layerTime{}
			out[s.name] = lt
		}
		d := s.end - s.start
		lt.n++
		lt.total += d
		lt.own += d - child[i]
	}
	return out
}

// meanNs returns a layer's mean duration in ns (self time when own).
func (lt layerTimes) meanNs(name string, own bool) float64 {
	l := lt[name]
	if l == nil || l.n == 0 {
		return 0
	}
	if own {
		return float64(l.own) / float64(l.n)
	}
	return float64(l.total) / float64(l.n)
}

// perOpNs returns a layer's total duration in ns (self time when own)
// spread over n operations: a layer that ran for only some of them
// counts zero for the rest.
func (lt layerTimes) perOpNs(name string, n int, own bool) float64 {
	l := lt[name]
	if l == nil || n == 0 {
		return 0
	}
	if own {
		return float64(l.own) / float64(n)
	}
	return float64(l.total) / float64(n)
}

// childCoverage returns, for every span since from, the summed
// duration of its children since from.
func (t *tracer) childCoverage(from int) []time.Duration {
	child := make([]time.Duration, len(t.spans))
	for i := from; i < len(t.spans); i++ {
		if p := t.spans[i].parent; p != noSpan {
			child[p] += t.spans[i].end - t.spans[i].start
		}
	}
	return child
}

// ownUs returns the self time of every span named name since from, in µs.
func (t *tracer) ownUs(from int, name string) []float64 {
	child := t.childCoverage(from)
	var out []float64
	for i := from; i < len(t.spans); i++ {
		if s := &t.spans[i]; s.name == name {
			out = append(out, float64(s.end-s.start-child[i])/1e3)
		}
	}
	return out
}

// spanMs returns the duration of every span named name since from, in ms.
func (t *tracer) spanMs(from int, name string) []float64 {
	var out []float64
	for i := from; i < len(t.spans); i++ {
		if t.spans[i].name == name {
			out = append(out, float64(t.spans[i].end-t.spans[i].start)/1e6)
		}
	}
	return out
}

// write stores the spans as tab-separated lines: id, parent, op, name,
// start ns, end ns.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tname\tstart_ns\tend_ns")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", i, s.parent, s.op, s.name, int64(s.start), int64(s.end))
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
