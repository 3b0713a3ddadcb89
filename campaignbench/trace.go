package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed interval at a layer boundary, recorded from the
// benchmark's side of the call: Name is "<layer>.<call>", Start/End are
// nanoseconds since the tracer was created, Parent indexes the span that
// caused it (-1 for an op's root span) and Op numbers the operation it
// belongs to.
type Span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// maxSpans caps a tracer's memory (about 50 bytes a span). Once full it
// records no more spans; samples taken at the same boundaries continue.
const maxSpans = 200_000

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so untraced loops call the same code with tracing off.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
	// roots counts the recorded op root spans (Parent -1).
	roots int
}

func newTracer() *Tracer { return &Tracer{t0: time.Now()} }

// now is the tracer clock: nanoseconds since the tracer started.
func (t *Tracer) now() int64 { return int64(time.Since(t.t0)) }

// span is an open span: its index in the tracer (-1 when it was not
// recorded) and its start on the tracer clock.
type span struct {
	idx   int
	start int64
}

// noParent is the parent of an op's root span.
var noParent = span{idx: -1}

// begin opens a span. A full tracer still times it, so the samples taken
// from end go on after the spans stop.
func (t *Tracer) begin(name string, parent span, op int) span {
	if t == nil {
		return noParent
	}
	start := t.now()
	return span{idx: t.add(name, start, -1, parent.idx, op), start: start}
}

// end closes a span begin returned and reports its duration (0 when
// tracing is off).
func (t *Tracer) end(s span) time.Duration {
	if t == nil {
		return 0
	}
	end := t.now()
	if s.idx >= 0 {
		t.mu.Lock()
		t.spans[s.idx].End = end
		t.mu.Unlock()
	}
	return time.Duration(end - s.start)
}

// add records a span whose bounds were measured elsewhere (an interval
// seen on an event stream) and returns its index, or -1 when the tracer
// is off or full.
func (t *Tracer) add(name string, start, end int64, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		return -1
	}
	if parent < 0 {
		t.roots++
	}
	t.spans = append(t.spans, Span{Name: name, Start: start, End: end, Parent: parent, Op: op})
	return len(t.spans) - 1
}

// firstOp is the number a loop gives its first op, so op numbers stay
// unique when one tracer records several loops: every recorded op has
// exactly one root span.
func (t *Tracer) firstOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.roots
}

// layerOf is the layer part of a span name ("inject.Campaign" → "inject").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// selfTimes returns each layer's self time per recorded op: the summed
// duration of its spans minus the part of each span that its child spans
// cover, divided by the number of op root spans.
func (t *Tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]Span)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range t.spans {
		if s.End < s.Start {
			continue
		}
		out[layerOf(s.Name)] += time.Duration(s.End-s.Start) - covered(s, children[i])
	}
	for l, d := range out {
		out[l] = d / time.Duration(max(1, t.roots))
	}
	return out
}

// covered is the length of the union of the child intervals, clipped to
// the parent span.
func covered(parent Span, kids []Span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, v := range iv {
		if v[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return time.Duration(total)
}

// write stores the spans as JSON lines, one span per line in recording
// order; a span's line number (from 0) is the index its children name as
// Parent.
func (t *Tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace: %w", err)
	}
	return f.Close()
}

func (t *Tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}
