package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/pipeline"
)

// span is one timed interval at a layer boundary.  Spans of one request
// share Req; Parent is the span that caused this one (0 for a root).
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the recorder was created
	End    float64 `json:"end_s"`
}

func (s span) seconds() float64 { return s.End - s.Start }

// recorder keeps spans in memory; write dumps them when the run ends.
// All methods are safe for concurrent use.
type recorder struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

func (r *recorder) at(t time.Time) float64 { return t.Sub(r.origin).Seconds() }

// add records a finished span and returns its id.
func (r *recorder) add(name string, parent, req int, start, end time.Time) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: r.at(start), End: r.at(end)})
	return id
}

// begin opens a span ending at the matching finish call.
func (r *recorder) begin(name string, parent, req int) int {
	now := time.Now()
	return r.add(name, parent, req, now, now)
}

// finish closes a span opened by begin and returns its duration.
func (r *recorder) finish(id int) float64 {
	end := r.at(time.Now())
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = end
	return s.seconds()
}

// timed records fn as a span named name and returns fn's error.
func (r *recorder) timed(name string, parent, req int, fn func() error) error {
	id := r.begin(name, parent, req)
	err := fn()
	r.finish(id)
	return err
}

// snapshot returns a copy of the recorded spans.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// durations returns the durations of the spans named name that keep
// accepts (every one when keep is nil).
func (r *recorder) durations(name string, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range r.snapshot() {
		if s.Name == name && (keep == nil || keep(s)) {
			out = append(out, s.seconds())
		}
	}
	return out
}

// sum returns the summed duration of every span named name.
func (r *recorder) sum(name string) float64 {
	var t float64
	for _, d := range r.durations(name, nil) {
		t += d
	}
	return t
}

// selfTimes returns, for each span named name that keep accepts, its
// duration minus the part of its interval its child spans cover.
func (r *recorder) selfTimes(name string, keep func(span) bool) []float64 {
	spans := r.snapshot()
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var out []float64
	for _, s := range spans {
		if s.Name == name && (keep == nil || keep(s)) {
			out = append(out, s.seconds()-covered(s, children[s.ID]))
		}
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) float64 {
	type iv struct{ lo, hi float64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi float64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo <= curHi:
			curHi = max(curHi, v.hi)
		default:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// write dumps the spans as JSON to path, creating its directory.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// requestSpans turns one svc.Run call's progress events into spans: a
// root "serve.run" span (closed by the caller), a "serve.wait" span from
// the call to the first event (admission plus cache lookup), and one
// "pipeline.kN" child per kernel from its start to its end event.
type requestSpans struct {
	rec  *recorder
	req  int
	root int
	call time.Time

	mu     sync.Mutex
	waited bool
	open   map[pipeline.Kernel]time.Time
}

func (r *recorder) request(req int) *requestSpans {
	now := time.Now()
	return &requestSpans{rec: r, req: req, call: now, root: r.add("serve.run", 0, req, now, now),
		open: map[pipeline.Kernel]time.Time{}}
}

// observe is the request's WithProgress hook.
func (q *requestSpans) observe(ev pipeline.Event) {
	now := time.Now()
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.waited {
		q.waited = true
		// A root of its own: serve.run's self time keeps the wait.
		q.rec.add("serve.wait", 0, q.req, q.call, now)
	}
	switch ev.Kind {
	case pipeline.EventKernelStart:
		q.open[ev.Kernel] = now
	case pipeline.EventKernelEnd:
		if start, ok := q.open[ev.Kernel]; ok {
			q.rec.add(kernelSpan[ev.Kernel], q.root, q.req, start, now)
			delete(q.open, ev.Kernel)
		}
	}
}

// done closes the request's root span.
func (q *requestSpans) done() { q.rec.finish(q.root) }

// kernelSpan names each kernel's span and metric stem.
var kernelSpan = map[pipeline.Kernel]string{
	pipeline.K0Generate: "pipeline.k0",
	pipeline.K1Sort:     "pipeline.k1",
	pipeline.K2Filter:   "pipeline.k2",
	pipeline.K3PageRank: "pipeline.k3",
}
