package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one call into a layer's public function, as seen from the
// harness: which function, when, which span caused it, and which
// operation (one program run, one diagnosis, one shipment, one query)
// it belongs to. Times are nanoseconds since the tracer was made.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1: top of an operation
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

// tracer keeps spans in memory until the run ends. The harness drives
// every operation from one goroutine, so the open spans form a stack
// and the top of the stack is the parent of the next span. A nil
// tracer records nothing: that is the untraced run.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	opID  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func noop() {}

// op starts a new operation of the given kind and returns the function
// that ends it. The operation is itself a span, "op.<kind>", under
// which the layer calls it makes hang; all of them share its
// identifier. Its self time is what the harness spent between calls.
func (t *tracer) op(kind string) func() {
	if t == nil {
		return noop
	}
	t.opID++
	return t.span("op." + kind)
}

// span opens a span and returns the function that closes it.
func (t *tracer) span(name string) func() {
	if t == nil {
		return noop
	}
	id := len(t.spans)
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: t.opID, Name: name, Start: int64(time.Since(t.t0))})
	t.stack = append(t.stack, id)
	return func() {
		t.spans[id].End = int64(time.Since(t.t0))
		t.stack = t.stack[:len(t.stack)-1]
	}
}

// layerTime is what the spans of one name add up to.
type layerTime struct {
	Name   string  `json:"name"`
	Calls  int     `json:"calls"`
	WallMs float64 `json:"wallMs"` // sum of span durations
	SelfMs float64 `json:"selfMs"` // wall minus the part child spans cover
}

// layers folds the spans by name. A span's self time is its duration
// minus its direct children's (children of one parent never overlap
// here, because the harness is one goroutine).
func (t *tracer) layers() map[string]*layerTime {
	out := map[string]*layerTime{}
	if t == nil {
		return out
	}
	child := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	for _, s := range t.spans {
		l := out[s.Name]
		if l == nil {
			l = &layerTime{Name: s.Name}
			out[s.Name] = l
		}
		l.Calls++
		l.WallMs += float64(s.End-s.Start) / 1e6
		l.SelfMs += float64(s.End-s.Start-child[s.ID]) / 1e6
	}
	return out
}

// meanMs is the mean duration of the spans called name, 0 if none.
func meanMs(layers map[string]*layerTime, name string) float64 {
	l := layers[name]
	if l == nil || l.Calls == 0 {
		return 0
	}
	return l.WallMs / float64(l.Calls)
}

// traceFile is what a traced run leaves in bench/out/.
type traceFile struct {
	Env    envStamp     `json:"env"`
	Layers []*layerTime `json:"layers"`
	Spans  []span       `json:"spans"`
}

func (t *tracer) write(path string, env envStamp) error {
	tf := traceFile{Env: env, Spans: t.spans}
	for _, l := range t.layers() {
		tf.Layers = append(tf.Layers, l)
	}
	sort.Slice(tf.Layers, func(i, j int) bool { return tf.Layers[i].Name < tf.Layers[j].Name })
	data, err := json.Marshal(&tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
