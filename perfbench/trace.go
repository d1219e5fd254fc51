package main

import (
	"cmp"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call at a layer boundary. IDs are 1-based positions
// in the tracer; Parent 0 marks a root. Spans of one request or CP job
// share Req.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// tracer holds spans in memory until the run ends. A nil tracer records
// nothing, so untraced windows pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 on a nil tracer).
func (t *tracer) begin(name string, parent int, req int64) int {
	if t == nil {
		return 0
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name, Start: now, End: now, Parent: parent, Req: req})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// add records a span whose bounds were observed elsewhere.
func (t *tracer) add(name string, start, end time.Time, parent int, req int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Req: req})
	t.mu.Unlock()
}

// layerTime is the time spent in one layer's spans.
type layerTime struct {
	layer string
	spans int
	total time.Duration
	self  time.Duration
}

// layerOf is the module a span name belongs to: "cpd.ALS" → "cpd".
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes sums, per layer, each span's duration and its self time: the
// duration minus the part of it that child spans cover.
func (t *tracer) selfTimes() []layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	byLayer := map[string]*layerTime{}
	var order []string
	for _, s := range t.spans {
		name := layerOf(s.Name)
		l := byLayer[name]
		if l == nil {
			l = &layerTime{layer: name}
			byLayer[name] = l
			order = append(order, name)
		}
		d := s.End - s.Start
		l.spans++
		l.total += time.Duration(d)
		l.self += time.Duration(d - covered(children[s.ID], s.Start, s.End))
	}
	out := make([]layerTime, 0, len(order))
	for _, name := range order {
		out = append(out, *byLayer[name])
	}
	return out
}

// covered returns the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	slices.SortFunc(ivs, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
	var total int64
	cur := lo
	for _, iv := range ivs {
		s, e := max(iv[0], cur), min(iv[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

// write stores the spans and the per-layer self times as JSON at path.
func (t *tracer) write(path, workload string, seed int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	type selfRow struct {
		Layer  string  `json:"layer"`
		Spans  int     `json:"spans"`
		Total  float64 `json:"total_ms"`
		SelfMs float64 `json:"self_ms"`
	}
	var self []selfRow
	for _, l := range t.selfTimes() {
		self = append(self, selfRow{l.layer, l.spans, ms(l.total), ms(l.self)})
	}
	t.mu.Lock()
	data, err := json.Marshal(map[string]any{"workload": workload, "seed": seed, "spans": t.spans, "self": self})
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
