package main

// The benchmark's own span recorder. Spans are recorded from here, around
// calls into each layer's public functions; spans inside the product are a
// later change. Spans stay in memory and are written out when the run ends.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call. Parent is the span that caused it (-1 for a
// root); spans of one operation share Op. Replay marks a span measured right
// after its parent returned, on the same inputs, to open up a call the
// benchmark cannot see inside: it is not within the parent's interval, but
// its length still counts against the parent's self time.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Replay bool   `json:"replay,omitempty"`
}

// tracer records spans. A nil *tracer records nothing, so call sites need
// no "is tracing on" branches.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span and returns its id (-1 on a nil tracer).
func (t *tracer) start(name string, parent, op int, replay bool) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now, Replay: replay})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// do runs fn inside a span and returns the span's id.
func (t *tracer) do(name string, parent, op int, replay bool, fn func()) int {
	id := t.start(name, parent, op, replay)
	fn()
	t.end(id)
	return id
}

// durations returns the length in seconds of every finished span named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End > 0 {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// median is the median length in seconds of the spans named name, 0 if none.
func (t *tracer) median(name string) float64 {
	return quantile(t.durations(name), 0.5)
}

// selfTimes attributes the wall-clock time of the root spans named rootName
// to layers (the span name up to its first '.'). A span's self time is its
// length minus the part its children cover — the union of their intervals,
// so children that ran in parallel are not counted twice — and what the
// children cover is divided among them in proportion to their lengths, so
// the layers' times add up to the roots' total.
func (t *tracer) selfTimes(rootName string) (byLayer map[string]float64, rootTotal float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int][]int)
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	byLayer = make(map[string]float64)
	var walk func(id int, share float64)
	walk = func(id int, share float64) {
		s := t.spans[id]
		var ivs [][2]int64
		var sum int64
		for _, c := range children[id] {
			ivs = append(ivs, [2]int64{t.spans[c].Start, t.spans[c].End})
			sum += t.spans[c].End - t.spans[c].Start
		}
		covered := min(unionLen(ivs), s.End-s.Start)
		byLayer[layerOf(s.Name)] += share * float64(s.End-s.Start-covered) / 1e9
		for _, c := range children[id] {
			walk(c, share*float64(covered)/float64(sum))
		}
	}
	for _, s := range t.spans {
		if s.Name == rootName && s.End > 0 {
			rootTotal += float64(s.End-s.Start) / 1e9
			walk(s.ID, 1)
		}
	}
	return byLayer, rootTotal
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// unionLen is the total length covered by the intervals.
func unionLen(ivs [][2]int64) int64 {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total, end int64
	for i, iv := range ivs {
		if i == 0 || iv[0] > end {
			total += iv[1] - iv[0]
			end = iv[1]
		} else if iv[1] > end {
			total += iv[1] - end
			end = iv[1]
		}
	}
	return total
}

// write stores the spans as JSON under dir.
func (t *tracer) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	raw, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+workload+".json"), raw, 0o644)
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
