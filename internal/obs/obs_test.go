package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestRenderDeterministicAndSorted(t *testing.T) {
	r := NewRegistry()
	// Register out of alphabetical order on purpose.
	z := r.Counter("zz_total", "last family", nil)
	r.Gauge("mid_gauge", "middle family", Labels{"b": "2", "a": "1"})
	a := r.Counter("aa_total", "first family", Labels{"endpoint": "/x"})
	b := r.Counter("aa_total", "first family", Labels{"endpoint": "/a"})
	z.Add(3)
	a.Inc()
	b.Add(2)

	out := render(t, r)
	if out != render(t, r) {
		t.Fatal("two idle renders differ")
	}
	// Families sorted by name, series sorted by label string, labels
	// sorted by key.
	wantOrder := []string{
		"# HELP aa_total first family",
		"# TYPE aa_total counter",
		`aa_total{endpoint="/a"} 2`,
		`aa_total{endpoint="/x"} 1`,
		"# HELP mid_gauge middle family",
		"# TYPE mid_gauge gauge",
		`mid_gauge{a="1",b="2"} 0`,
		"# HELP zz_total last family",
		"# TYPE zz_total counter",
		"zz_total 3",
	}
	got := strings.Split(strings.TrimSuffix(out, "\n"), "\n")
	if len(got) != len(wantOrder) {
		t.Fatalf("rendered %d lines, want %d:\n%s", len(got), len(wantOrder), out)
	}
	for i, want := range wantOrder {
		if got[i] != want {
			t.Errorf("line %d = %q, want %q", i, got[i], want)
		}
	}
}

func TestCounterRejectsNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("negative Add did not panic")
		}
	}()
	c := NewRegistry().Counter("c_total", "", nil)
	c.Add(-1)
}

func TestDuplicateSeriesPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "", Labels{"k": "v"})
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup_total", "", Labels{"k": "v"})
}

func TestKindConflictPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", "", nil)
	defer func() {
		if recover() == nil {
			t.Fatal("kind conflict did not panic")
		}
	}()
	r.Gauge("m", "", Labels{"k": "v"})
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", nil, []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.01, 0.05, 0.5, 2, 3} {
		h.Observe(v)
	}
	if h.Count() != 6 {
		t.Errorf("Count = %d, want 6", h.Count())
	}
	if math.Abs(h.Sum()-5.565) > 1e-12 {
		t.Errorf("Sum = %v, want 5.565", h.Sum())
	}
	out := render(t, r)
	for _, want := range []string{
		`lat_seconds_bucket{le="0.01"} 2`, // 0.005 and the boundary 0.01 (le is inclusive)
		`lat_seconds_bucket{le="0.1"} 3`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 6`,
		`lat_seconds_count 6`,
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestFuncMetrics(t *testing.T) {
	r := NewRegistry()
	v := 7.0
	r.CounterFunc("cf_total", "derived", nil, func() float64 { return v })
	r.GaugeFunc("gf", "derived gauge", nil, func() float64 { return -v })
	out := render(t, r)
	if !strings.Contains(out, "cf_total 7\n") || !strings.Contains(out, "gf -7\n") {
		t.Errorf("func metrics missing:\n%s", out)
	}
}

// TestConcurrentObserve is the -race workout: hammered counters,
// gauges and histograms from many goroutines must total exactly and
// render cleanly while being written.
func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hits_total", "", nil)
	g := r.Gauge("depth", "", nil)
	h := r.Histogram("lat", "", nil, []float64{1, 2, 4})
	const goroutines, per = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 5))
				if i%100 == 0 {
					var buf bytes.Buffer
					if err := r.WriteText(&buf); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != goroutines*per {
		t.Errorf("counter = %v, want %d", c.Value(), goroutines*per)
	}
	if g.Value() != goroutines*per {
		t.Errorf("gauge = %v, want %d", g.Value(), goroutines*per)
	}
	if h.Count() != goroutines*per {
		t.Errorf("histogram count = %d, want %d", h.Count(), goroutines*per)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("esc_total", "", Labels{"path": "a\"b\\c\nd"})
	out := render(t, r)
	if !strings.Contains(out, `esc_total{path="a\"b\\c\nd"} 0`) {
		t.Errorf("escaping wrong:\n%s", out)
	}
}

func TestStages(t *testing.T) {
	s := NewStages()
	if s.ID == 0 {
		t.Error("stages ID = 0, want a fresh request id")
	}
	if s2 := NewStages(); s2.ID == s.ID {
		t.Error("two Stages share an ID")
	}
	stop := s.Start("atpg")
	stop(12)
	s.Observe("dict_build", 250e6, 96) // 250 ms
	s.Observe("atpg", 100e6, 8)

	snap := s.Snapshot()
	if len(snap) != 2 || snap[0].Name != "atpg" || snap[1].Name != "dict_build" {
		t.Fatalf("snapshot order = %+v", snap)
	}
	if snap[0].Calls != 2 || snap[0].Items != 20 {
		t.Errorf("atpg stat = %+v", snap[0])
	}
	if snap[1].Seconds < 0.249 || snap[1].Seconds > 0.251 {
		t.Errorf("dict_build seconds = %v", snap[1].Seconds)
	}

	sum := NewStages()
	sum.Merge(s)
	sum.Merge(s)
	if got := sum.Snapshot()[1]; got.Calls != 2 || got.Items != 192 {
		t.Errorf("merged dict_build = %+v", got)
	}
	tbl := sum.String()
	for _, want := range []string{"stage", "atpg", "dict_build", "total", "share"} {
		if !strings.Contains(tbl, want) {
			t.Errorf("table missing %q:\n%s", want, tbl)
		}
	}
}

func TestStagesConcurrent(t *testing.T) {
	s := NewStages()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Observe("stage", 1000, 1)
				if i%100 == 0 {
					_ = s.Snapshot()
				}
			}
		}()
	}
	wg.Wait()
	if got := s.Snapshot()[0]; got.Calls != 4000 || got.Items != 4000 {
		t.Errorf("concurrent stage = %+v", got)
	}
}
