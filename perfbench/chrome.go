package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"text/tabwriter"
)

// chromeEvent is one Chrome trace-event record; Perfetto opens a file of
// them directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the tracer's spans as complete ("X") events in
// microseconds, one thread per traced job.
func writeChromeTrace(path string, t *tracer) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	evs := []chromeEvent{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "perfbench traced jobs (host time)"}}}
	for _, s := range t.spans {
		if s.parent < 0 {
			evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", Pid: 1, Tid: s.tid, Args: map[string]any{"name": s.name}})
		}
	}
	for i, s := range t.spans {
		evs = append(evs, chromeEvent{
			Name: s.name, Ph: "X", Pid: 1, Tid: s.tid,
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Args: map[string]any{"span": i, "parent": s.parent},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	return nil
}

// printSelfTimes prints, per span name, the total duration and the self
// time left after subtracting the spans nested in each.
func printSelfTimes(w io.Writer, t *tracer) {
	children := map[int][]interval{}
	for _, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], s.interval)
		}
	}
	type agg struct {
		n           int
		total, self int64
	}
	by := map[string]*agg{}
	var names []string
	for i, s := range t.spans {
		name := s.name
		if s.parent < 0 {
			name = "job"
		}
		a := by[name]
		if a == nil {
			a = &agg{}
			by[name] = a
			names = append(names, name)
		}
		a.n++
		a.total += s.end - s.start
		a.self += selfTime(s.interval, children[i])
	}
	sort.Slice(names, func(i, j int) bool { return by[names[i]].self > by[names[j]].self })
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "span\tn\ttotal_ms\tself_ms")
	for _, name := range names {
		a := by[name]
		fmt.Fprintf(tw, "%s\t%d\t%.3f\t%.3f\n", name, a.n, float64(a.total)/1e6, float64(a.self)/1e6)
	}
	tw.Flush()
}
