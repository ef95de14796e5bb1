package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// A span is one call across a layer boundary, recorded by the
// benchmark around a call into the program. Spans of one operation (a
// Table I case or a client request) share Op; Parent names the layer
// whose span caused this one ("" for an operation's root span).
type span struct {
	Layer  string `json:"layer"`
	Parent string `json:"parent,omitempty"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Items  int64  `json:"items,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op, so the untraced and
// traced runs execute the same code path apart from the recording.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin starts a span and returns the function that ends it with the
// number of work items the call handled.
func (t *tracer) begin(layer, parent string, op int64) func(items int64) {
	if t == nil {
		return func(int64) {}
	}
	start := time.Since(t.origin)
	return func(items int64) {
		end := time.Since(t.origin)
		t.mu.Lock()
		t.spans = append(t.spans, span{Layer: layer, Parent: parent, Op: op, Start: int64(start), End: int64(end), Items: items})
		t.mu.Unlock()
	}
}

// mark returns the tracer clock, for bounding a measured window.
func (t *tracer) mark() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.origin))
}

// window returns the spans that started in [from, to), sorted by
// start time.
func (t *tracer) window(from, to int64) []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span
	for _, s := range t.spans {
		if s.Start >= from && s.Start < to {
			out = append(out, s)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// write stores every span as JSON lines under dir.
func (t *tracer) write(dir, name string) (string, error) {
	if t == nil {
		return "", nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			return "", err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("close %s: %w", path, err)
	}
	return path, nil
}

// layerStat aggregates one layer's spans.
type layerStat struct {
	Calls int64
	Sum   time.Duration // summed span time
	Busy  time.Duration // union of span intervals: time the layer had work
}

// aggregate groups spans by layer.
func aggregate(spans []span) map[string]*layerStat {
	out := map[string]*layerStat{}
	byLayer := map[string][]span{}
	for _, s := range spans {
		byLayer[s.Layer] = append(byLayer[s.Layer], s)
	}
	for layer, ss := range byLayer {
		st := &layerStat{}
		for _, s := range ss {
			st.Calls++
			st.Sum += s.dur()
		}
		st.Busy = unionLen(ss)
		out[layer] = st
	}
	return out
}

// unionLen is the total length of the union of the spans' intervals.
func unionLen(ss []span) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	iv := append([]span(nil), ss...)
	sort.Slice(iv, func(i, j int) bool { return iv[i].Start < iv[j].Start })
	var total int64
	curS, curE := iv[0].Start, iv[0].End
	for _, s := range iv[1:] {
		if s.Start > curE {
			total += curE - curS
			curS, curE = s.Start, s.End
			continue
		}
		if s.End > curE {
			curE = s.End
		}
	}
	return time.Duration(total + curE - curS)
}
