package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval around a call into a layer, recorded by the
// benchmark from outside the program. Name is "<layer>.<call>"; the part
// before the dot is the module the time is charged to ("bench" for the
// benchmark's own glue). ID names the design or job the span belongs to.
type span struct {
	Name   string
	ID     string
	Start  time.Duration // since the tracer's origin
	End    time.Duration
	Parent int // index into tracer.spans, -1 for the root
	Track  int // Chrome-trace thread: 0 is the generator, 1.. are job slots
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how end-to-end runs measure with tracing off.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	stack []int // open spans of the generator goroutine
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under the generator goroutine's innermost open span.
func (t *tracer) begin(name, id string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Name: name, ID: id, Start: time.Since(t.t0), Parent: parent})
	i := len(t.spans) - 1
	t.stack = append(t.stack, i)
	return i
}

// end closes the innermost span begin opened.
func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
}

// top is the generator goroutine's innermost open span, the parent to hand
// to add from other goroutines.
func (t *tracer) top() int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return -1
}

// add records a finished interval under an explicit parent: job spans that
// overlap on their own tracks, and per-chunk accumulated drive/step time.
func (t *tracer) add(name, id string, parent, track int, start time.Time, dur time.Duration) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := start.Sub(t.t0)
	t.spans = append(t.spans, span{Name: name, ID: id, Start: s, End: s + dur, Parent: parent, Track: track})
	return len(t.spans) - 1
}

func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfTimes charges every span's duration, minus the part its children
// cover, to key(span name): layerOf for the per-layer table. Children may
// overlap one another (concurrent jobs), so the covered part is the union
// of their intervals.
func (t *tracer) selfTimes(key func(name string) string) map[string]time.Duration {
	kids := make([][]int, len(t.spans))
	for i, s := range t.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	self := map[string]time.Duration{}
	for i, s := range t.spans {
		ch := kids[i]
		sort.Slice(ch, func(a, b int) bool { return t.spans[ch[a]].Start < t.spans[ch[b]].Start })
		covered, edge := time.Duration(0), s.Start
		for _, k := range ch {
			a, b := t.spans[k].Start, t.spans[k].End
			if a < edge {
				a = edge
			}
			if b > s.End {
				b = s.End
			}
			if b > a {
				covered += b - a
				edge = b
			}
		}
		self[key(s.Name)] += (s.End - s.Start) - covered
	}
	return self
}

// coverage is the share of the traced wall (the root span) that lies
// inside spans of the program's layers rather than the benchmark's glue.
func (t *tracer) coverage() float64 {
	if len(t.spans) == 0 {
		return 0
	}
	wall := t.spans[0].End - t.spans[0].Start
	if wall <= 0 {
		return 0
	}
	return 1 - float64(t.selfTimes(layerOf)["bench"])/float64(wall)
}

// writeChrome writes the spans as Chrome trace_event JSON, which Perfetto
// (ui.perfetto.dev) and chrome://tracing open directly.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		e := event{Name: s.Name, Cat: layerOf(s.Name), Ph: "X", Pid: 1, Tid: s.Track,
			Ts: float64(s.Start) / 1e3, Dur: float64(s.End-s.Start) / 1e3}
		if s.ID != "" {
			e.Args = map[string]string{"id": s.ID}
		}
		evs = append(evs, e)
	}
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
