package obs

import (
	"fmt"
	"io"
	"strings"
	"sync"
	"time"
)

// StageStat accumulates one pipeline stage: total wall time, the
// number of times the stage ran, and a stage-defined item count
// (samples simulated, patterns generated) that lets a report show
// per-item cost next to per-call cost.
type StageStat struct {
	Seconds float64
	Calls   int64
	Items   int64
}

// NamedStage pairs a stage name with its accumulated stats.
type NamedStage struct {
	Name string
	StageStat
}

// Stages is a request-scoped set of per-stage wall-time accumulators:
// the measurement behind ddd-table1/ddd-diagnose --timings. Each
// Stages carries a process-unique ID (NextRequestID) so overlapping
// requests in a concurrent pipeline can be told apart in logs. Stage
// order is first-observation order, which for a sequential pipeline
// is pipeline order; all methods are safe for concurrent use.
type Stages struct {
	ID uint64

	mu     sync.Mutex
	order  []string
	byName map[string]*StageStat
}

// NewStages returns an empty accumulator with a fresh request ID.
func NewStages() *Stages {
	return &Stages{ID: NextRequestID(), byName: make(map[string]*StageStat)}
}

func (s *Stages) stat(name string) *StageStat {
	st, ok := s.byName[name]
	if !ok {
		st = &StageStat{}
		s.byName[name] = st
		s.order = append(s.order, name)
	}
	return st
}

// Observe adds one completed stage execution of duration d covering
// items work units.
func (s *Stages) Observe(name string, d time.Duration, items int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stat(name)
	st.Seconds += d.Seconds()
	st.Calls++
	st.Items += items
}

// Start begins timing one execution of a stage; the returned stop
// function records the elapsed time plus the item count the stage
// processed. Typical use:
//
//	stop := st.Start("dict_build")
//	dict, err := core.BuildDictionary(...)
//	stop(int64(cfg.Samples))
func (s *Stages) Start(name string) func(items int64) {
	begin := time.Now()
	return func(items int64) {
		s.Observe(name, time.Since(begin), items)
	}
}

// Merge folds o's stages into s (appending unseen stage names in o's
// order). Useful to aggregate per-case timings into a run total.
func (s *Stages) Merge(o *Stages) {
	for _, ns := range o.Snapshot() {
		s.mu.Lock()
		st := s.stat(ns.Name)
		st.Seconds += ns.Seconds
		st.Calls += ns.Calls
		st.Items += ns.Items
		s.mu.Unlock()
	}
}

// Snapshot returns the stages in first-observation order.
func (s *Stages) Snapshot() []NamedStage {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]NamedStage, 0, len(s.order))
	for _, name := range s.order {
		out = append(out, NamedStage{Name: name, StageStat: *s.byName[name]})
	}
	return out
}

// WriteTable renders the per-stage breakdown as an aligned table with
// each stage's share of the total.
func (s *Stages) WriteTable(w io.Writer) error {
	snap := s.Snapshot()
	total := 0.0
	for _, ns := range snap {
		total += ns.Seconds
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %8s %10s %10s %7s\n", "stage", "calls", "items", "seconds", "share")
	for _, ns := range snap {
		share := "-"
		if total > 0 {
			share = fmt.Sprintf("%.1f%%", 100*ns.Seconds/total)
		}
		fmt.Fprintf(&sb, "%-14s %8d %10d %10.3f %7s\n", ns.Name, ns.Calls, ns.Items, ns.Seconds, share)
	}
	fmt.Fprintf(&sb, "%-14s %8s %10s %10.3f\n", "total", "", "", total)
	_, err := io.WriteString(w, sb.String())
	return err
}

// String renders the table (for logs and -v output).
func (s *Stages) String() string {
	var sb strings.Builder
	_ = s.WriteTable(&sb)
	return sb.String()
}
