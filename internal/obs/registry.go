package obs

import (
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// OverflowLabel is the label value that absorbs observations once a family's
// cardinality bound is reached.
const OverflowLabel = "_overflow"

// MaxLabelValues bounds every label-keyed map in obs: the distinct values of
// a metric family, the sessions the SLO tracker follows and the per-server
// rows of a fleet rollup. A misbehaving client cannot grow any of them
// without bound.
const MaxLabelValues = 64

// foldLabel is the one cardinality rule: a value not yet among the distinct
// values tracked is admitted while fewer than MaxLabelValues exist and folds
// into OverflowLabel after that. The caller counts a reported fold on
// MetricLabelOverflow once its own lock is released.
func foldLabel(value string, distinct int) (string, bool) {
	if distinct >= MaxLabelValues && value != OverflowLabel {
		return OverflowLabel, true
	}
	return value, false
}

// Family is every metric that shares one name: children of one kind keyed by
// the value of at most one label (e.g. session). A plain metric is the
// family with no label key and the single child ""; a labeled family exists
// for the fleet dimension — a multi-session edge server needs per-stream
// series next to the process-wide ones. A child is a bare *Counter, *Gauge
// or *Histogram, so the per-label hot path is the plain hot path after one
// map lookup, and callers that observe repeatedly hold the child (With is
// the lookup). Every method on a nil family is a no-op.
type Family[T any] struct {
	key      string
	bounds   []float64 // histogram families: the shared bucket bounds
	newChild func(bounds []float64) *T
	// reg receives cardinality folds on MetricLabelOverflow — strictly after
	// mu is released, because registry readers (Snapshot, WritePrometheus)
	// take reg.mu before mu and the reverse order would deadlock.
	reg *Registry

	mu       sync.RWMutex
	children map[string]*T
}

// The three kinds of family a registry holds.
type (
	LabeledCounter   = Family[Counter]
	LabeledGauge     = Family[Gauge]
	LabeledHistogram = Family[Histogram]
)

// With returns the child for the given label value, creating it on first use
// and folding into OverflowLabel past MaxLabelValues distinct values (nil,
// hence no-op, on a nil family).
func (f *Family[T]) With(value string) *T {
	if f == nil {
		return nil
	}
	f.mu.RLock()
	c, ok := f.children[value]
	f.mu.RUnlock()
	if ok {
		return c
	}
	f.mu.Lock()
	c, ok = f.children[value]
	folded := false
	if !ok {
		if value, folded = foldLabel(value, len(f.children)); folded {
			c, ok = f.children[value]
		}
		if !ok {
			c = f.newChild(f.bounds)
			f.children[value] = c
		}
	}
	f.mu.Unlock()
	if folded {
		f.reg.Counter(MetricLabelOverflow).Inc()
	}
	return c
}

// Each calls fn for every child in sorted label-value order.
func (f *Family[T]) Each(fn func(value string, child *T)) {
	if f == nil {
		return
	}
	f.mu.RLock()
	children := make(map[string]*T, len(f.children))
	for v, c := range f.children {
		children[v] = c
	}
	f.mu.RUnlock()
	for _, v := range sortedKeys(children) {
		fn(v, children[v])
	}
}

// Registry holds named metric families, one map per kind. The zero value is
// not usable; call NewRegistry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Family[Counter]
	gauges   map[string]*Family[Gauge]
	hists    map[string]*Family[Histogram]
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Family[Counter]),
		gauges:   make(map[string]*Family[Gauge]),
		hists:    make(map[string]*Family[Histogram]),
	}
}

// family returns the named family of one kind, creating it on first use. A
// name is one family: later calls ignore key and bounds.
func family[T any](r *Registry, m map[string]*Family[T], name, key string, bounds []float64, newChild func([]float64) *T) *Family[T] {
	r.mu.RLock()
	f := m[name]
	r.mu.RUnlock()
	if f != nil {
		return f
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := m[name]; f != nil {
		return f
	}
	f = &Family[T]{
		key: key, bounds: append([]float64(nil), bounds...), newChild: newChild,
		reg: r, children: make(map[string]*T),
	}
	m[name] = f
	return f
}

// LabeledCounter returns the named counter family with the given label key.
func (r *Registry) LabeledCounter(name, key string) *LabeledCounter {
	if r == nil {
		return nil
	}
	return family(r, r.counters, name, key, nil, func([]float64) *Counter { return new(Counter) })
}

// LabeledGauge returns the named gauge family with the given label key.
func (r *Registry) LabeledGauge(name, key string) *LabeledGauge {
	if r == nil {
		return nil
	}
	return family(r, r.gauges, name, key, nil, func([]float64) *Gauge { return new(Gauge) })
}

// LabeledHistogram returns the named histogram family with the given label
// key; all children share the bucket bounds.
func (r *Registry) LabeledHistogram(name, key string, bounds []float64) *LabeledHistogram {
	if r == nil {
		return nil
	}
	return family(r, r.hists, name, key, bounds, NewHistogram)
}

// Counter returns the named plain counter, creating it on first use (nil,
// hence no-op, on a nil registry).
func (r *Registry) Counter(name string) *Counter { return r.LabeledCounter(name, "").With("") }

// Gauge returns the named plain gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge { return r.LabeledGauge(name, "").With("") }

// Histogram returns the named plain histogram, creating it with bounds on
// first use (later calls ignore bounds).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	return r.LabeledHistogram(name, "", bounds).With("")
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// series renders a sample name with its label pairs: labels is "" for a plain
// metric and key="value" for a labeled child, extra a histogram's le pair.
func series(name, labels, extra string) string {
	if labels != "" && extra != "" {
		labels += ","
	}
	if labels += extra; labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// writeFamilies appends one kind to the exposition in name order: a "# TYPE"
// line per non-empty family, then sample(name, labels, child) per label
// value in sorted order.
func writeFamilies[T any](b *bytes.Buffer, fams map[string]*Family[T], kind string, sample func(name, labels string, child *T)) {
	for _, name := range sortedKeys(fams) {
		f, typed := fams[name], false
		f.Each(func(value string, child *T) {
			if !typed {
				fmt.Fprintf(b, "# TYPE %s %s\n", name, kind)
				typed = true
			}
			labels := ""
			if f.key != "" {
				labels = fmt.Sprintf("%s=%q", f.key, value)
			}
			sample(name, labels, child)
		})
	}
}

// WritePrometheus writes every metric in the Prometheus text exposition
// format: counters, gauges, then histograms, names and label values sorted
// for stable output.
func (r *Registry) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	var b bytes.Buffer
	r.mu.RLock()
	writeFamilies(&b, r.counters, "counter", func(name, labels string, c *Counter) {
		fmt.Fprintf(&b, "%s %d\n", series(name, labels, ""), c.Value())
	})
	writeFamilies(&b, r.gauges, "gauge", func(name, labels string, g *Gauge) {
		fmt.Fprintf(&b, "%s %g\n", series(name, labels, ""), g.Value())
	})
	writeFamilies(&b, r.hists, "histogram", func(name, labels string, h *Histogram) {
		cum := h.cumulative()
		for i, bound := range h.bounds {
			fmt.Fprintf(&b, "%s %d\n", series(name+"_bucket", labels, fmt.Sprintf(`le="%g"`, bound)), cum[i])
		}
		fmt.Fprintf(&b, "%s %d\n%s %g\n%s %d\n", series(name+"_bucket", labels, `le="+Inf"`), cum[len(cum)-1],
			series(name+"_sum", labels, ""), h.Sum(), series(name+"_count", labels, ""), h.Count())
	})
	r.mu.RUnlock()
	_, err := w.Write(b.Bytes())
	return err
}

// Snapshot is a point-in-time copy of every metric in a registry. Plain
// metrics are keyed by name; the labeled maps are keyed metric name → label
// value and omitted when no labeled family has a child, so pre-labeled
// consumers of the schema are unaffected.
type Snapshot struct {
	UptimeSec         float64                                 `json:"uptime_sec"`
	Counters          map[string]int64                        `json:"counters"`
	Gauges            map[string]float64                      `json:"gauges"`
	Histograms        map[string]HistogramSnapshot            `json:"histograms"`
	LabeledCounters   map[string]map[string]int64             `json:"labeled_counters,omitempty"`
	LabeledGauges     map[string]map[string]float64           `json:"labeled_gauges,omitempty"`
	LabeledHistograms map[string]map[string]HistogramSnapshot `json:"labeled_histograms,omitempty"`
}

// snapshotFamilies copies one kind into the snapshot: families without a
// label key into plain, the others into *labeled (allocated on demand).
func snapshotFamilies[T, V any](fams map[string]*Family[T], plain map[string]V, labeled *map[string]map[string]V, value func(*T) V) {
	for name, f := range fams {
		vals := make(map[string]V)
		f.Each(func(v string, child *T) { vals[v] = value(child) })
		switch {
		case len(vals) == 0:
		case f.key == "":
			plain[name] = vals[""]
		default:
			if *labeled == nil {
				*labeled = make(map[string]map[string]V)
			}
			(*labeled)[name] = vals
		}
	}
}

// Snapshot copies the current value of every metric.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]float64),
		Histograms: make(map[string]HistogramSnapshot),
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	snapshotFamilies(r.counters, s.Counters, &s.LabeledCounters, (*Counter).Value)
	snapshotFamilies(r.gauges, s.Gauges, &s.LabeledGauges, (*Gauge).Value)
	snapshotFamilies(r.hists, s.Histograms, &s.LabeledHistograms, snapshotHistogram)
	return s
}

// Inventory lists the families that have at least one child, one
// "<kind> <name> <label key>" line each (no key for a plain metric), sorted:
// the schema a run registered, which the telemetry inventory tests pin.
func (r *Registry) Inventory() []string {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	out := inventory(nil, r.counters, "counter")
	out = inventory(out, r.gauges, "gauge")
	out = inventory(out, r.hists, "histogram")
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

func inventory[T any](out []string, fams map[string]*Family[T], kind string) []string {
	for name, f := range fams {
		f.mu.RLock()
		if len(f.children) > 0 {
			out = append(out, strings.TrimSpace(kind+" "+name+" "+f.key))
		}
		f.mu.RUnlock()
	}
	return out
}
