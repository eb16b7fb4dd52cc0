// Package metrics is a zero-dependency production-observability subsystem:
// typed counters, gauges, and histograms in a named registry, exported in
// Prometheus text exposition format.
//
// The package sits deliberately outside the simulation core. Simulation
// results must be deterministic (the cpelint determinism pass forbids
// wall-clock reads in simulation-critical packages), so nothing here ever
// feeds a value back into a run: the farm, the HTTP server, and the CLI
// drivers record what happened, and /metrics reports it. Exposition output
// is byte-stable for a given registry state — series are emitted in sorted
// order with deterministic formatting — so scraping the same state twice
// yields identical bytes, which keeps the repo's determinism claims
// testable at the observability layer too.
//
// Histograms reuse internal/stats.Histogram's log2 bucket layout (bucket i
// holds values of bit length i), so a metrics histogram costs a fixed 65
// counters and no per-observation allocation, exactly like the simulator's
// own latency histograms; Prometheus `_bucket` lines are derived from
// stats.Histogram.CumulativeBuckets.
//
// Metric names may carry a Prometheus label set inline: the full series
// name `farm_jobs_total` or `http_requests_total{code="200"}` is the
// registry key, and HELP/TYPE headers are emitted once per family (the name
// up to the first '{').
package metrics

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/stats"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; methods on a nil *Counter are no-ops so instrumentation can be wired
// unconditionally and enabled by registry injection.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The zero value is ready to
// use; methods on a nil *Gauge are no-ops.
type Gauge struct {
	v atomic.Int64
}

// Set overwrites the gauge.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adjusts the gauge by n (negative to decrease).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Value returns the current level.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram is a concurrency-safe log2-bucketed histogram (the
// stats.Histogram layout behind a mutex). Values are unitless uint64s; by
// convention the unit is part of the metric name (_us, _cycles, _bytes).
// Methods on a nil *Histogram are no-ops.
type Histogram struct {
	mu sync.Mutex
	h  *stats.Histogram
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.h.Observe(v)
	h.mu.Unlock()
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Count()
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() uint64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.h.Sum()
}

// metricKind tags a registry entry.
type metricKind uint8

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindHistogram:
		return "histogram"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	}
	return "gauge"
}

// entry is one registered series.
type entry struct {
	name string // full series name, labels included
	kind metricKind

	counter   *Counter
	gauge     *Gauge
	gaugeFn   func() int64
	histogram *Histogram
}

// Registry is a named collection of metrics. Registration is idempotent:
// asking for an existing name of the same kind returns the existing metric,
// so independent components can share series without coordination. Asking
// for an existing name with a different kind returns a detached (working
// but never exported) metric rather than corrupting the exposition — a
// programming error surfaced by TestRegistryKindMismatch rather than a
// panic, per the errors-not-panics policy.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*entry
	help    map[string]string // family name -> help text
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		entries: make(map[string]*entry),
		help:    make(map[string]string),
	}
}

// family returns the metric family of a series name: the name up to the
// first '{' (label sets share one family).
func family(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// sanitizeName maps name onto the Prometheus metric-name alphabet:
// [a-zA-Z_:][a-zA-Z0-9_:]*, with an optional trailing {label="value",...}
// block left untouched. Invalid characters become '_'.
func sanitizeName(name string) string {
	base, labels := name, ""
	if i := strings.IndexByte(name, '{'); i >= 0 {
		base, labels = name[:i], name[i:]
	}
	var b strings.Builder
	for i, r := range base {
		valid := r == '_' || r == ':' ||
			(r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') ||
			(i > 0 && r >= '0' && r <= '9')
		if valid {
			b.WriteRune(r)
		} else {
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		b.WriteByte('_')
	}
	return b.String() + labels
}

// lookup returns the entry for name, creating it with mk when absent.
// Returns nil when an entry of a different kind already owns the name.
func (r *Registry) lookup(name, help string, kind metricKind, mk func(*entry)) *entry {
	if r == nil {
		return nil
	}
	name = sanitizeName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.entries[name]; ok {
		if e.kind != kind {
			return nil
		}
		return e
	}
	e := &entry{name: name, kind: kind}
	mk(e)
	r.entries[name] = e
	if f := family(name); help != "" && r.help[f] == "" {
		r.help[f] = help
	}
	return e
}

// Counter returns the registered counter named name, creating it if needed.
// Safe on a nil registry (returns a detached, nil-safe counter).
func (r *Registry) Counter(name, help string) *Counter {
	e := r.lookup(name, help, kindCounter, func(e *entry) { e.counter = &Counter{} })
	if e == nil {
		return &Counter{}
	}
	return e.counter
}

// Gauge returns the registered gauge named name, creating it if needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	e := r.lookup(name, help, kindGauge, func(e *entry) { e.gauge = &Gauge{} })
	if e == nil {
		return &Gauge{}
	}
	return e.gauge
}

// GaugeFunc registers a gauge whose value is computed by fn at exposition
// time (queue depths, cache occupancy). Re-registering a name replaces the
// function. fn must be safe for concurrent use.
func (r *Registry) GaugeFunc(name, help string, fn func() int64) {
	e := r.lookup(name, help, kindGaugeFunc, func(e *entry) {})
	if e != nil {
		r.mu.Lock()
		e.gaugeFn = fn
		r.mu.Unlock()
	}
}

// Histogram returns the registered histogram named name, creating it if
// needed. name should carry its unit as a suffix (_us, _cycles, _bytes).
func (r *Registry) Histogram(name, help string) *Histogram {
	e := r.lookup(name, help, kindHistogram, func(e *entry) {
		e.histogram = &Histogram{h: stats.NewHistogram(family(e.name))}
	})
	if e == nil {
		return &Histogram{h: stats.NewHistogram(family(name))}
	}
	return e.histogram
}

// WritePrometheus writes every registered series in Prometheus text
// exposition format (version 0.0.4). Output is byte-stable: families sort
// lexically, series within a family sort lexically, and HELP/TYPE headers
// are emitted once per family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	names := make([]string, 0, len(r.entries))
	for n := range r.entries {
		names = append(names, n)
	}
	sort.Strings(names)
	// Snapshot entries under the lock; value reads happen outside so a slow
	// writer cannot stall instrumentation.
	snap := make([]*entry, len(names))
	for i, n := range names {
		snap[i] = r.entries[n]
	}
	help := make(map[string]string, len(r.help))
	for f, h := range r.help {
		help[f] = h
	}
	r.mu.Unlock()

	var b strings.Builder
	seenFamily := ""
	for _, e := range snap {
		f := family(e.name)
		if f != seenFamily {
			seenFamily = f
			if h := help[f]; h != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", f, strings.ReplaceAll(h, "\n", " "))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", f, e.kind)
		}
		switch e.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s %d\n", e.name, e.counter.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s %d\n", e.name, e.gauge.Value())
		case kindGaugeFunc:
			var v int64
			if e.gaugeFn != nil {
				v = e.gaugeFn()
			}
			fmt.Fprintf(&b, "%s %d\n", e.name, v)
		case kindHistogram:
			writeHistogram(&b, e)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram's cumulative _bucket lines plus
// _sum and _count. Bucket upper bounds are the log2 layout's 2^i - 1
// edges, truncated after the bucket that reaches the total count, then a
// +Inf catch-all — so the line set depends only on the recorded data.
func writeHistogram(b *strings.Builder, e *entry) {
	h := e.histogram
	h.mu.Lock()
	buckets := h.h.CumulativeBuckets()
	count := h.h.Count()
	sum := h.h.Sum()
	h.mu.Unlock()
	base, labels := e.name, ""
	if i := strings.IndexByte(e.name, '{'); i >= 0 {
		base, labels = e.name[:i], strings.TrimSuffix(e.name[i+1:], "}")
	}
	le := func(bound string) string {
		if labels == "" {
			return fmt.Sprintf(`{le=%q}`, bound)
		}
		return fmt.Sprintf(`{%s,le=%q}`, labels, bound)
	}
	for _, bk := range buckets {
		fmt.Fprintf(b, "%s_bucket%s %d\n", base, le(fmt.Sprint(bk.UpperBound)), bk.Count)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", base, le("+Inf"), count)
	fmt.Fprintf(b, "%s_sum%s %d\n", base, labels2(labels), sum)
	fmt.Fprintf(b, "%s_count%s %d\n", base, labels2(labels), count)
}

func labels2(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// Handler returns an http.Handler serving the registry in Prometheus text
// format — mount it at /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
