package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// ContentType is the Prometheus text exposition content type the
// /metrics endpoint must advertise.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// DefaultLatencyBuckets span sub-millisecond cache hits to the 10 s
// request deadline — the request-level latency histogram bounds.
var DefaultLatencyBuckets = []float64{
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// DefaultStageBuckets resolve the predict pipeline's per-stage timings,
// which live one to two orders of magnitude below whole requests.
var DefaultStageBuckets = []float64{
	1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 1e-1,
}

// metricKind is the TYPE line vocabulary.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// Emit is the callback signature scrape-time collector functions use to
// add one labelled sample to their family.
type Emit func(value float64, labelValues ...string)

// Registry holds metric families and renders them in Prometheus text
// exposition format 0.0.4. Registration is done once at construction
// time; the hot paths (Inc/Set/Observe on the returned handles) are
// lock-cheap — an atomic add, or a short read-locked series lookup for
// dynamic labels. Rendering is deterministic: families sort by name and
// series by label values, so consecutive scrapes diff cleanly.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: map[string]*family{}}
}

// family is one metric name: HELP/TYPE metadata plus either a set of
// materialized series (hot-path metrics) or a scrape-time collector fn.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histograms only

	mu     sync.RWMutex
	series map[string]*series
	fn     func(emit Emit) // nil for materialized families
}

// series is one labelled time series. Counters keep an integer count in
// bits; gauges keep math.Float64bits. Histograms use the bucket arrays.
type series struct {
	vals []string

	bits atomic.Uint64

	counts  []atomicU64 // per-bucket (non-cumulative), +1 overflow slot
	sumBits atomic.Uint64
	n       atomic.Uint64
}

// atomicU64 pads nothing — bucket arrays are small and scraped rarely.
type atomicU64 struct{ v atomic.Uint64 }

func (f *family) get(vals []string) *series {
	if len(vals) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d",
			f.name, len(f.labels), len(vals)))
	}
	// The key is built on the stack; a hit looks it up without
	// allocating, only a new series keeps a copy.
	var kb [128]byte
	key := kb[:0]
	for i, v := range vals {
		if i > 0 {
			key = append(key, 0xff)
		}
		key = append(key, v...)
	}
	f.mu.RLock()
	s := f.series[string(key)]
	f.mu.RUnlock()
	if s != nil {
		return s
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	k := string(key)
	if s = f.series[k]; s != nil {
		return s
	}
	s = &series{vals: append([]string(nil), vals...)}
	if f.kind == kindHistogram {
		s.counts = make([]atomicU64, len(f.buckets)+1)
	}
	f.series[k] = s
	return s
}

// register adds a family, panicking on a duplicate name — metric names
// are a global namespace and silent merging would corrupt exposition.
func (r *Registry) register(f *family) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.fams[f.name]; ok {
		panic(fmt.Sprintf("obs: duplicate metric registration %q", f.name))
	}
	if f.series == nil {
		f.series = map[string]*series{}
	}
	r.fams[f.name] = f
	return f
}

// Counter is a monotonically increasing integer metric.
type Counter struct{ s *series }

// Inc adds one.
func (c *Counter) Inc() { c.s.bits.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.s.bits.Load() }

// CounterVec is a counter family with one or more label dimensions.
type CounterVec struct{ f *family }

// CounterVec registers a labelled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if len(labels) == 0 {
		panic("obs: CounterVec needs at least one label")
	}
	return &CounterVec{f: r.register(&family{
		name: name, help: help, kind: kindCounter, labels: labels,
	})}
}

// With returns the counter for one label-value combination (created on
// first use). Callers on hot paths should cache the handle.
func (v *CounterVec) With(labelValues ...string) *Counter {
	return &Counter{s: v.f.get(labelValues)}
}

// Inc is shorthand for With(labelValues...).Inc().
func (v *CounterVec) Inc(labelValues ...string) { v.With(labelValues...).Inc() }

// Snapshot returns the current counts keyed by the first label value —
// the map shape the service's /health endpoint reports. Families with
// more than one label join the values with ",".
func (v *CounterVec) Snapshot() map[string]uint64 {
	v.f.mu.RLock()
	defer v.f.mu.RUnlock()
	out := make(map[string]uint64, len(v.f.series))
	for _, s := range v.f.series {
		out[strings.Join(s.vals, ",")] = s.bits.Load()
	}
	return out
}

// Gauge is a settable instantaneous value.
type Gauge struct{ s *series }

// Set stores v.
func (g *Gauge) Set(v float64) { g.s.bits.Store(math.Float64bits(v)) }

// Value returns the stored value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.s.bits.Load()) }

// GaugeVec is a gauge family with label dimensions.
type GaugeVec struct{ f *family }

// GaugeVec registers a labelled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if len(labels) == 0 {
		panic("obs: GaugeVec needs at least one label")
	}
	return &GaugeVec{f: r.register(&family{
		name: name, help: help, kind: kindGauge, labels: labels,
	})}
}

// With returns the gauge for one label-value combination.
func (v *GaugeVec) With(labelValues ...string) *Gauge {
	return &Gauge{s: v.f.get(labelValues)}
}

// Set is shorthand for With(labelValues...).Set(val).
func (v *GaugeVec) Set(val float64, labelValues ...string) { v.With(labelValues...).Set(val) }

// GaugeFunc registers a gauge whose value is sampled at scrape time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: kindGauge,
		fn: func(emit Emit) { emit(fn()) }})
}

// CounterFunc registers a counter sampled at scrape time — for counts
// owned by another subsystem (e.g. the live-state engine's event
// totals) that would be wasteful to mirror on every increment.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	r.register(&family{name: name, help: help, kind: kindCounter,
		fn: func(emit Emit) { emit(fn()) }})
}

// GaugeVecFunc registers a labelled gauge family sampled at scrape time;
// fn emits one sample per label combination.
func (r *Registry) GaugeVecFunc(name, help string, labels []string, fn func(emit Emit)) {
	r.register(&family{name: name, help: help, kind: kindGauge, labels: labels, fn: fn})
}

// CounterVecFunc is GaugeVecFunc for counters.
func (r *Registry) CounterVecFunc(name, help string, labels []string, fn func(emit Emit)) {
	r.register(&family{name: name, help: help, kind: kindCounter, labels: labels, fn: fn})
}

// InfoFunc registers an info-style gauge: a constant-1 series whose labels
// carry identity strings (model fingerprints, version numbers) rather than
// magnitudes — the Prometheus idiom for exporting build/model metadata. fn
// supplies the current label values at scrape time; returning a slice of
// the wrong length drops the sample for that scrape instead of panicking.
func (r *Registry) InfoFunc(name, help string, labels []string, fn func() []string) {
	r.register(&family{name: name, help: help, kind: kindGauge, labels: labels,
		fn: func(emit Emit) {
			vals := fn()
			if len(vals) == len(labels) {
				emit(1, vals...)
			}
		}})
}

// Histogram is a fixed-bucket distribution with Prometheus cumulative
// ("le") exposition. Observe is lock-free: a linear bucket scan plus
// atomic adds (bucket counts are stored non-cumulatively and cumulated
// at render time).
type Histogram struct {
	s       *series
	buckets []float64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) { observe(h.s, h.buckets, v) }

func observe(s *series, buckets []float64, v float64) {
	i := sort.SearchFloat64s(buckets, v)
	// SearchFloat64s finds the first bucket >= v, which is exactly the
	// smallest "le" bound the sample belongs to; v above every bound
	// lands in the overflow slot.
	s.counts[i].v.Add(1)
	s.n.Add(1)
	for {
		old := s.sumBits.Load()
		if s.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Histogram registers an unlabelled histogram over ascending bucket
// upper bounds (a +Inf bucket is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	checkBuckets(name, buckets)
	f := r.register(&family{name: name, help: help, kind: kindHistogram,
		buckets: append([]float64(nil), buckets...)})
	return &Histogram{s: f.get(nil), buckets: f.buckets}
}

// HistogramVec is a histogram family with label dimensions.
type HistogramVec struct{ f *family }

// HistogramVec registers a labelled histogram family.
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if len(labels) == 0 {
		panic("obs: HistogramVec needs at least one label")
	}
	checkBuckets(name, buckets)
	return &HistogramVec{f: r.register(&family{
		name: name, help: help, kind: kindHistogram, labels: labels,
		buckets: append([]float64(nil), buckets...),
	})}
}

// With returns the histogram for one label-value combination.
func (v *HistogramVec) With(labelValues ...string) *Histogram {
	return &Histogram{s: v.f.get(labelValues), buckets: v.f.buckets}
}

func checkBuckets(name string, buckets []float64) {
	if len(buckets) == 0 {
		panic(fmt.Sprintf("obs: histogram %s needs buckets", name))
	}
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: histogram %s buckets not ascending", name))
		}
	}
}

// --- Rendering -----------------------------------------------------------

// WriteText renders every family in Prometheus text exposition format
// 0.0.4: families sorted by name, series sorted by label values, HELP
// then TYPE then samples. The output is byte-deterministic for a fixed
// metric state.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := make([]string, 0, len(r.fams))
	fams := make([]*family, 0, len(r.fams))
	for n := range r.fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fams = append(fams, r.fams[n])
	}
	r.mu.Unlock()

	var b strings.Builder
	for _, f := range fams {
		f.render(&b)
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// row is one rendered sample before sorting.
type row struct {
	vals []string
	// histogram state (counter/gauge use only value)
	value   float64
	count   uint64
	sum     float64
	buckets []uint64 // cumulative, same length as family buckets
	isInt   bool
}

func (f *family) render(b *strings.Builder) {
	rows := f.collectRows()
	sort.Slice(rows, func(i, j int) bool {
		a, c := rows[i].vals, rows[j].vals
		for k := range a {
			if a[k] != c[k] {
				return a[k] < c[k]
			}
		}
		return false
	})

	fmt.Fprintf(b, "# HELP %s %s\n", f.name, escapeHelp(f.help))
	fmt.Fprintf(b, "# TYPE %s %s\n", f.name, f.kind)
	for _, rw := range rows {
		if f.kind == kindHistogram {
			f.renderHistogram(b, rw)
			continue
		}
		b.WriteString(f.name)
		writeLabels(b, f.labels, rw.vals, "", "")
		b.WriteByte(' ')
		if rw.isInt {
			b.WriteString(strconv.FormatUint(uint64(rw.value), 10))
		} else {
			b.WriteString(formatValue(rw.value))
		}
		b.WriteByte('\n')
	}
}

// collectRows snapshots the family's samples: materialized series read
// their atomics; collector families run their fn.
func (f *family) collectRows() []row {
	var rows []row
	if f.fn != nil {
		f.fn(func(value float64, labelValues ...string) {
			if len(labelValues) != len(f.labels) {
				panic(fmt.Sprintf("obs: collector for %s emitted %d label values, want %d",
					f.name, len(labelValues), len(f.labels)))
			}
			rows = append(rows, row{
				vals:  append([]string(nil), labelValues...),
				value: value,
				isInt: f.kind == kindCounter && value == math.Trunc(value) && !math.IsInf(value, 0),
			})
		})
		return rows
	}
	f.mu.RLock()
	defer f.mu.RUnlock()
	for _, s := range f.series {
		switch f.kind {
		case kindHistogram:
			rw := row{vals: s.vals, count: s.n.Load(),
				sum:     math.Float64frombits(s.sumBits.Load()),
				buckets: make([]uint64, len(f.buckets))}
			var cum uint64
			for i := range f.buckets {
				cum += s.counts[i].v.Load()
				rw.buckets[i] = cum
			}
			rows = append(rows, rw)
		case kindCounter:
			rows = append(rows, row{vals: s.vals, value: float64(s.bits.Load()), isInt: true})
		default:
			rows = append(rows, row{vals: s.vals, value: math.Float64frombits(s.bits.Load())})
		}
	}
	return rows
}

func (f *family) renderHistogram(b *strings.Builder, rw row) {
	for i, ub := range f.buckets {
		b.WriteString(f.name)
		b.WriteString("_bucket")
		writeLabels(b, f.labels, rw.vals, "le", formatValue(ub))
		fmt.Fprintf(b, " %d\n", rw.buckets[i])
	}
	b.WriteString(f.name)
	b.WriteString("_bucket")
	writeLabels(b, f.labels, rw.vals, "le", "+Inf")
	fmt.Fprintf(b, " %d\n", rw.count)
	b.WriteString(f.name)
	b.WriteString("_sum")
	writeLabels(b, f.labels, rw.vals, "", "")
	fmt.Fprintf(b, " %s\n", formatValue(rw.sum))
	b.WriteString(f.name)
	b.WriteString("_count")
	writeLabels(b, f.labels, rw.vals, "", "")
	fmt.Fprintf(b, " %d\n", rw.count)
}

// writeLabels renders {k1="v1",...} including an optional trailing extra
// label (the histogram "le"); nothing is written when there are no
// labels at all.
func writeLabels(b *strings.Builder, keys, vals []string, extraKey, extraVal string) {
	if len(keys) == 0 && extraKey == "" {
		return
	}
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(vals[i]))
		b.WriteByte('"')
	}
	if extraKey != "" {
		if len(keys) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraKey)
		b.WriteString(`="`)
		b.WriteString(extraVal)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

// formatValue renders a float the way Prometheus clients do: shortest
// round-trip representation ("3", "0.25", "1e+06").
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var (
	helpEscaper  = strings.NewReplacer(`\`, `\\`, "\n", `\n`)
	labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
)

func escapeHelp(s string) string  { return helpEscaper.Replace(s) }
func escapeLabel(s string) string { return labelEscaper.Replace(s) }
