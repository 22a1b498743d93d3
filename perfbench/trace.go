package main

import (
	"bufio"
	"encoding/json"
	"os"
	"strings"
	"time"

	"schemex"
)

// span is one timed call into a layer. Spans of one operation share Op;
// Parent indexes the enclosing span (-1 for the operation's root). The layer
// is the name up to the first dot.
type span struct {
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer records spans in memory. A nil *tracer records nothing, so the
// untraced replay runs the same code with one nil check per call site.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now(), op: -1} }

// beginOp starts the root span of the next operation.
func (t *tracer) beginOp(kind string) {
	if t == nil {
		return
	}
	t.op++
	t.begin("bench." + kind)
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Op: t.op, Name: name, Parent: parent, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, len(t.spans)-1)
}

func (t *tracer) end() {
	if t == nil {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].Dur = int64(time.Since(t.t0)) - t.spans[i].Start
}

// stages records the stage split of one extraction as children of the
// enclosing core.extract span, from the durations the library measured.
func (t *tracer) stages(tm schemex.StageTiming) {
	if t == nil {
		return
	}
	parent := t.stack[len(t.stack)-1]
	start := t.spans[parent].Start
	for _, st := range []struct {
		name string
		d    time.Duration
	}{{"perfect.stage1", tm.Stage1}, {"cluster.stage2", tm.Stage2}, {"recast.stage3", tm.Stage3}} {
		t.spans = append(t.spans, span{Op: t.op, Name: st.name, Parent: parent, Start: start, Dur: int64(st.d)})
		start += int64(st.d)
	}
}

// opSums returns, for every operation holding a span named name, the summed
// duration of those spans in milliseconds.
func (t *tracer) opSums(name string) []float64 {
	return t.collect(func(i int) (int64, bool) { return t.spans[i].Dur, t.spans[i].Name == name })
}

// opSelf returns, for every operation holding a span of the given layer, the
// layer's self time in milliseconds: its spans' durations minus the part
// their child spans cover.
func (t *tracer) opSelf(layer string) []float64 {
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.Dur
		}
	}
	return t.collect(func(i int) (int64, bool) {
		return t.spans[i].Dur - child[i], strings.HasPrefix(t.spans[i].Name, layer+".")
	})
}

func (t *tracer) collect(pick func(i int) (int64, bool)) []float64 {
	sums := map[int]int64{}
	var order []int
	for i := range t.spans {
		v, ok := pick(i)
		if !ok {
			continue
		}
		op := t.spans[i].Op
		if _, seen := sums[op]; !seen {
			order = append(order, op)
		}
		sums[op] += v
	}
	out := make([]float64, len(order))
	for i, op := range order {
		out[i] = float64(sums[op]) / 1e6
	}
	return out
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
