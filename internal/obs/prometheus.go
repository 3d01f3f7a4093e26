package obs

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) for Snapshots, stdlib
// only. Series names are sanitized to the metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]* (dots become underscores), and the ";k=v" label
// suffixes obs.Fleet attaches ("hw.estimate_seconds;worker=w1") render as
// label pairs ({worker="w1"}). Counters and gauges emit one sample each;
// histograms emit the standard cumulative _bucket/_sum/_count family.

// promContentType is the Content-Type the text exposition format declares.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// promSample is one rendered sample line body (labels + value), grouped under
// a family.
type promSample struct {
	suffix string // appended to the family name ("", "_bucket", ...)
	labels string // rendered {...} block, "" for none
	value  string
}

// promFamily is one metric family: every sample sharing a base name, emitted
// under a single TYPE header.
type promFamily struct {
	typ     string
	samples []promSample
	series  map[string]bool // rendered label sets of the family's series
}

// promLabel is one label pair of a series, its key sanitized.
type promLabel struct{ k, v string }

// WritePrometheus renders the snapshots in Prometheus text exposition format
// 0.0.4. Later snapshots append samples to the families of earlier ones, so
// a process can expose its own registry alongside a fleet's per-worker
// labeled series in one scrape.
//
// The output is valid exposition whatever the series names are: no sample
// repeats a label name, no series appears twice, and every sample sits
// under one TYPE header of its own kind. Distinct series names can render
// alike, so the series that claims a rendering first keeps it. Series are
// taken snapshot by snapshot, and within one the counters, then the gauges,
// then the histograms, each in name order; a later series is dropped when
//   - its name and label set render as an earlier series' do (the gauges
//     "a.b" and "a_b" both render as a_b);
//   - its name belongs to a family of another kind (a counter and a gauge
//     both named x), or one of its sample names to another family (a
//     counter named h_bucket beside a histogram h).
//
// Within one series a label key repeated after sanitizing keeps its first
// value, labels render sorted by key, and a histogram drops a label named
// "le", which its buckets use.
func WritePrometheus(w io.Writer, snaps ...Snapshot) error {
	fams := map[string]*promFamily{}
	claimed := map[string]bool{} // family and sample names in use
	// series returns the family a new series of the given kind joins and its
	// rendered labels, or ok false when the series must be dropped.
	series := func(name, typ string) (f *promFamily, labels string, ok bool) {
		base, pairs := splitSeries(name, typ == "histogram")
		labels = renderLabels(pairs)
		f = fams[base]
		if f == nil {
			claims := []string{base}
			if typ == "histogram" {
				claims = append(claims, base+"_bucket", base+"_sum", base+"_count")
			}
			for _, c := range claims {
				if claimed[c] {
					return nil, "", false
				}
			}
			for _, c := range claims {
				claimed[c] = true
			}
			f = &promFamily{typ: typ, series: map[string]bool{}}
			fams[base] = f
		}
		if f.typ != typ || f.series[labels] {
			return nil, "", false
		}
		f.series[labels] = true
		return f, labels, true
	}
	for _, s := range snaps {
		for _, name := range sortedKeys(s.Counters) {
			if f, labels, ok := series(name, "counter"); ok {
				f.samples = append(f.samples, promSample{labels: labels, value: strconv.FormatInt(s.Counters[name], 10)})
			}
		}
		for _, name := range sortedKeys(s.Gauges) {
			if f, labels, ok := series(name, "gauge"); ok {
				f.samples = append(f.samples, promSample{labels: labels, value: formatPromValue(s.Gauges[name])})
			}
		}
		for _, name := range sortedKeys(s.Histograms) {
			f, labels, ok := series(name, "histogram")
			if !ok {
				continue
			}
			h := s.Histograms[name]
			cum := int64(0)
			les := map[string]bool{}
			for i, c := range h.Counts {
				cum += c
				le := "+Inf"
				if i < len(h.Bounds) {
					le = formatPromValue(h.Bounds[i])
				}
				if les[le] {
					continue // a malformed snapshot's repeated bound
				}
				les[le] = true
				f.samples = append(f.samples, promSample{
					suffix: "_bucket",
					labels: addLabel(labels, "le", le),
					value:  strconv.FormatInt(cum, 10),
				})
			}
			f.samples = append(f.samples,
				promSample{suffix: "_sum", labels: labels, value: formatPromValue(h.Sum)},
				promSample{suffix: "_count", labels: labels, value: strconv.FormatInt(h.Count, 10)})
		}
	}
	names := make([]string, 0, len(fams))
	for name := range fams {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f := fams[name]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", name, f.typ); err != nil {
			return err
		}
		for _, smp := range f.samples {
			if _, err := fmt.Fprintf(w, "%s%s%s %s\n", name, smp.suffix, smp.labels, smp.value); err != nil {
				return err
			}
		}
	}
	return nil
}

// PrometheusHandler serves the snapshots returned by snap on each scrape
// with the exposition Content-Type.
func PrometheusHandler(snap func() []Snapshot) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", promContentType)
		var snaps []Snapshot
		if snap != nil {
			snaps = snap()
		}
		_ = WritePrometheus(w, snaps...)
	})
}

// splitSeries splits a registry series name into its sanitized metric name
// and its label pairs: "hw.estimate_seconds;worker=w1" becomes
// ("hw_estimate_seconds", [worker=w1]). A part with no "=" or an empty key
// is skipped, a key repeated after sanitizing keeps its first value, a key
// "le" is dropped when dropLE is set, and the pairs come sorted by key.
func splitSeries(series string, dropLE bool) (name string, labels []promLabel) {
	parts := strings.Split(series, ";")
	name = sanitizeMetricName(parts[0])
	for _, p := range parts[1:] {
		k, v, ok := strings.Cut(p, "=")
		if !ok || k == "" {
			continue
		}
		k = sanitizeLabelName(k)
		if (dropLE && k == "le") || slices.ContainsFunc(labels, func(l promLabel) bool { return l.k == k }) {
			continue
		}
		labels = append(labels, promLabel{k, v})
	}
	slices.SortFunc(labels, func(a, b promLabel) int { return strings.Compare(a.k, b.k) })
	return name, labels
}

// renderLabels renders label pairs as a {...} block, "" for none.
func renderLabels(labels []promLabel) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labelPair(l.k, l.v))
	}
	b.WriteByte('}')
	return b.String()
}

// addLabel inserts k=v into a rendered label block (possibly empty).
func addLabel(labels, k, v string) string {
	pair := labelPair(k, v)
	if labels == "" {
		return "{" + pair + "}"
	}
	return labels[:len(labels)-1] + "," + pair + "}"
}

// sanitizeMetricName maps a series name onto [a-zA-Z_:][a-zA-Z0-9_:]*.
func sanitizeMetricName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
			b.WriteRune(r)
		case r >= '0' && r <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// sanitizeLabelName maps a label key onto [a-zA-Z_][a-zA-Z0-9_]*.
func sanitizeLabelName(name string) string {
	s := sanitizeMetricName(name)
	return strings.ReplaceAll(s, ":", "_")
}

// labelPair renders k="v". The exposition format defines exactly three
// escapes in a label value — \\, \" and \n — so those are the only bytes
// rewritten: other valid UTF-8 passes through unchanged, and each invalid
// byte becomes U+FFFD, which is what ranging over a string yields for it.
func labelPair(k, v string) string {
	var b strings.Builder
	b.WriteString(k)
	b.WriteString(`="`)
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	b.WriteByte('"')
	return b.String()
}

// formatPromValue renders a float the way the exposition format expects,
// including the +Inf/-Inf/NaN spellings.
func formatPromValue(v float64) string {
	switch {
	case v != v:
		return "NaN"
	case v > 1.7976931348623157e308:
		return "+Inf"
	case v < -1.7976931348623157e308:
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
