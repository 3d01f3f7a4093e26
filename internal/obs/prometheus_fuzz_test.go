package obs

import (
	"sort"
	"strings"
	"testing"
)

// fuzzSnapshots builds snapshots from a fuzz spec: one series per line, its
// first byte naming the kind (g gauge, h histogram, anything else counter)
// and the rest its series name; a line "|" starts the next snapshot.
// Counters count up from cv, gauges read gv, and each histogram has the
// bounds {gv, 1}, which repeat when gv is 1.
func fuzzSnapshots(spec string, cv int64, gv float64) []Snapshot {
	newSnap := func() Snapshot {
		return Snapshot{Counters: map[string]int64{}, Gauges: map[string]float64{}, Histograms: map[string]HistogramSnapshot{}}
	}
	snaps := []Snapshot{newSnap()}
	for i, line := range strings.Split(spec, "\n") {
		s := &snaps[len(snaps)-1]
		switch {
		case line == "":
		case line == "|":
			snaps = append(snaps, newSnap())
		case line[0] == 'g':
			s.Gauges[line[1:]] = gv
		case line[0] == 'h':
			s.Histograms[line[1:]] = HistogramSnapshot{Bounds: []float64{gv, 1}, Counts: []int64{1, 2, 3}, Count: 6, Sum: gv}
		default:
			s.Counters[line[1:]] = cv + int64(i)
		}
	}
	return snaps
}

// parsePromSample splits a sample line that matches promSampleRe into its
// metric name and label pairs, undoing the value escapes.
func parsePromSample(line string) (name string, labels [][2]string) {
	end := strings.IndexAny(line, "{ ")
	name, rest := line[:end], line[end:]
	if rest[0] != '{' {
		return name, nil
	}
	rest = rest[1:]
	for rest[0] != '}' {
		eq := strings.IndexByte(rest, '=')
		key := rest[:eq]
		rest = rest[eq+2:] // past `="`
		var v strings.Builder
		for rest[0] != '"' {
			if rest[0] == '\\' {
				v.WriteByte(map[byte]byte{'\\': '\\', '"': '"', 'n': '\n'}[rest[1]])
				rest = rest[2:]
				continue
			}
			v.WriteByte(rest[0])
			rest = rest[1:]
		}
		labels = append(labels, [2]string{key, v.String()})
		rest = strings.TrimPrefix(rest[1:], ",")
	}
	return name, labels
}

// checkExposition fails unless text is valid exposition: every line matches
// the grammar, no sample repeats a label name, no series (name plus label
// set) appears twice, and every sample sits under the one TYPE header of
// its family, of the family's kind: a counter or gauge sample carries the
// family's name, a histogram's the name with _bucket (and an le label),
// _sum or _count.
func checkExposition(t *testing.T, text string) {
	t.Helper()
	if text == "" {
		return // nothing to expose is a valid scrape
	}
	checkPromGrammar(t, text)
	types := map[string]string{} // family -> kind
	owner := map[string]string{} // sample name -> family
	seen := map[string]bool{}    // series keys
	fam := ""
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if line == "" {
			continue
		}
		if f, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, kind, _ := strings.Cut(f, " ")
			if _, dup := types[name]; dup {
				t.Errorf("second TYPE header for %s", name)
			}
			types[name], fam = kind, name
			continue
		}
		name, labels := parsePromSample(line)
		if fam == "" {
			t.Errorf("sample before any TYPE header: %q", line)
			continue
		}
		hasLE := false
		keys := map[string]bool{}
		pairs := make([]string, 0, len(labels))
		for _, l := range labels {
			if keys[l[0]] {
				t.Errorf("label %s repeated in %q", l[0], line)
			}
			keys[l[0]] = true
			hasLE = hasLE || l[0] == "le"
			pairs = append(pairs, l[0]+"\x00"+l[1])
		}
		sort.Strings(pairs)
		if key := name + "\x01" + strings.Join(pairs, "\x01"); seen[key] {
			t.Errorf("series repeated: %q", line)
		} else {
			seen[key] = true
		}
		if o, ok := owner[name]; ok && o != fam {
			t.Errorf("sample %q under family %s, but %s is already family %s's", line, fam, name, o)
		}
		owner[name] = fam
		switch kind := types[fam]; kind {
		case "counter", "gauge":
			if name != fam {
				t.Errorf("%s family %s holds sample %q", kind, fam, line)
			}
		case "histogram":
			if ok := (name == fam+"_bucket") == hasLE && (name == fam+"_bucket" || name == fam+"_sum" || name == fam+"_count"); !ok {
				t.Errorf("histogram family %s holds sample %q", fam, line)
			}
		}
	}
}

// FuzzWritePrometheus renders snapshots of arbitrary series names, label
// keys and values, and values, and requires valid exposition of them. The
// seeds under testdata/fuzz/FuzzWritePrometheus include snapshots whose
// names collide once rendered: a repeated label key, a histogram's own le
// label, a counter and a gauge of one name, two names that sanitize alike,
// and a counter named like a histogram's bucket series.
func FuzzWritePrometheus(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string, cv int64, gv float64) {
		var b strings.Builder
		if err := WritePrometheus(&b, fuzzSnapshots(spec, cv, gv)...); err != nil {
			t.Fatal(err)
		}
		checkExposition(t, b.String())
	})
}
