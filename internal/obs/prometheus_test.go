package obs

import (
	"fmt"
	"math"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"unicode/utf8"
)

// Exposition-format line grammar (text format 0.0.4): a TYPE comment or a
// sample line "name{labels} value". This is what the CI smoke validates scraped
// output against, so the encoder tests share it.
var (
	promTypeRe   = regexp.MustCompile(`^# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (counter|gauge|histogram)$`)
	promSampleRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\[\\"n]|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\[\\"n]|[^"\\])*")*\})? (NaN|[+-]Inf|[-+0-9.eE]+)$`)
)

// checkPromGrammar fails on any line that is neither a valid TYPE comment nor
// a valid sample.
func checkPromGrammar(t *testing.T, text string) {
	t.Helper()
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if promTypeRe.MatchString(line) || promSampleRe.MatchString(line) {
			continue
		}
		t.Errorf("line violates exposition grammar: %q", line)
	}
}

func promText(t *testing.T, snaps ...Snapshot) string {
	t.Helper()
	var b strings.Builder
	if err := WritePrometheus(&b, snaps...); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestPrometheusCountersAndGauges(t *testing.T) {
	text := promText(t, Snapshot{
		Counters: map[string]int64{"grid.jobs.completed": 64},
		Gauges:   map[string]float64{"queue.depth": 2.5},
	})
	checkPromGrammar(t, text)
	for _, want := range []string{
		"# TYPE grid_jobs_completed counter\n",
		"grid_jobs_completed 64\n",
		"# TYPE queue_depth gauge\n",
		"queue_depth 2.5\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestPrometheusHistogramCumulative(t *testing.T) {
	text := promText(t, Snapshot{
		Histograms: map[string]HistogramSnapshot{
			"hw.estimate_seconds": {Bounds: []float64{0.1, 1}, Counts: []int64{3, 2, 1}, Count: 6, Sum: 4.5},
		},
	})
	checkPromGrammar(t, text)
	// Buckets must be cumulative with +Inf last, per the format spec.
	for _, want := range []string{
		"# TYPE hw_estimate_seconds histogram\n",
		`hw_estimate_seconds_bucket{le="0.1"} 3` + "\n",
		`hw_estimate_seconds_bucket{le="1"} 5` + "\n",
		`hw_estimate_seconds_bucket{le="+Inf"} 6` + "\n",
		"hw_estimate_seconds_sum 4.5\n",
		"hw_estimate_seconds_count 6\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

// TestPrometheusWorkerLabels pins the fleet convention: a ";worker=w1" series
// suffix renders as a label pair, and the same base name from many workers
// shares one TYPE header.
func TestPrometheusWorkerLabels(t *testing.T) {
	f := NewFleet()
	f.Update("w1", 1, Snapshot{Counters: map[string]int64{"grid.worker.jobs": 4}})
	f.Update("w2", 1, Snapshot{Counters: map[string]int64{"grid.worker.jobs": 6}})
	text := promText(t, f.Labeled())
	checkPromGrammar(t, text)
	if got := strings.Count(text, "# TYPE grid_worker_jobs counter"); got != 1 {
		t.Errorf("TYPE headers for one family = %d, want 1:\n%s", got, text)
	}
	for _, want := range []string{
		`grid_worker_jobs{worker="w1"} 4` + "\n",
		`grid_worker_jobs{worker="w2"} 6` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

// TestPrometheusLabelEscaping pins label-value escaping for worker ids, which
// arrive from outside the program: the exposition format defines only \\,
// \" and \n, so a tab and other valid UTF-8 pass through raw and an invalid
// byte becomes U+FFFD — never a Go escape like \t, \xff or \u2028.
func TestPrometheusLabelEscaping(t *testing.T) {
	f := NewFleet()
	f.Update("w\t\"\\\n\xff\u2028", 1, Snapshot{
		Counters:   map[string]int64{"grid.worker.jobs": 4},
		Histograms: map[string]HistogramSnapshot{"lat": {Bounds: []float64{1}, Counts: []int64{1, 0}, Count: 1, Sum: 1}},
	})
	text := promText(t, f.Labeled())
	checkPromGrammar(t, text)
	if !utf8.ValidString(text) {
		t.Errorf("exposition is not valid UTF-8:\n%q", text)
	}
	const label = `{worker="w` + "\t" + `\"\\\n` + "\uFFFD\u2028" + `"`
	for _, want := range []string{
		"grid_worker_jobs" + label + "} 4\n",
		"lat_bucket" + label + `,le="1"} 1` + "\n",
		"lat_count" + label + "} 1\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%q", want, text)
		}
	}
}

func TestPrometheusMultipleSnapshotsOneScrape(t *testing.T) {
	local := Snapshot{Counters: map[string]int64{"grid.jobs.completed": 10}}
	fleet := Snapshot{Counters: map[string]int64{"grid.worker.jobs;worker=w1": 10}}
	text := promText(t, local, fleet)
	checkPromGrammar(t, text)
	if !strings.Contains(text, "grid_jobs_completed 10\n") || !strings.Contains(text, `grid_worker_jobs{worker="w1"} 10`+"\n") {
		t.Errorf("combined scrape lost a snapshot:\n%s", text)
	}
}

func TestPrometheusSpecialValues(t *testing.T) {
	text := promText(t, Snapshot{Gauges: map[string]float64{
		"nan": math.NaN(), "pinf": math.Inf(1), "ninf": math.Inf(-1),
	}})
	checkPromGrammar(t, text)
	for _, want := range []string{"nan NaN\n", "pinf +Inf\n", "ninf -Inf\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestPrometheusNameSanitization(t *testing.T) {
	text := promText(t, Snapshot{Counters: map[string]int64{
		"hw.estimate-calls": 1,
		"9lives":            2,
		"weird name;bad-key=v;=skipme;label=a\"b": 3,
	}})
	checkPromGrammar(t, text)
	for _, want := range []string{
		"hw_estimate_calls 1\n",
		"_9lives 2\n",
		`weird_name{bad_key="v",label="a\"b"} 3` + "\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %q in:\n%s", want, text)
		}
	}
}

func TestPrometheusDeterministicOrder(t *testing.T) {
	snap := Snapshot{
		Counters: map[string]int64{"b": 1, "a": 2, "c": 3},
		Gauges:   map[string]float64{"z": 1, "m": 2},
	}
	first := promText(t, snap)
	for i := 0; i < 10; i++ {
		if again := promText(t, snap); again != first {
			t.Fatalf("non-deterministic exposition:\n%s\nvs\n%s", first, again)
		}
	}
}

func TestPrometheusHandler(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("scrapes").Add(7)
	h := PrometheusHandler(func() []Snapshot { return []Snapshot{reg.Snapshot()} })
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/debug/prometheus", nil))
	if ct := rr.Header().Get("Content-Type"); ct != promContentType {
		t.Errorf("Content-Type = %q, want %q", ct, promContentType)
	}
	if !strings.Contains(rr.Body.String(), "scrapes 7\n") {
		t.Errorf("body missing counter:\n%s", rr.Body.String())
	}
	checkPromGrammar(t, rr.Body.String())

	// A nil snapshot func serves an empty (but valid) exposition.
	rr2 := httptest.NewRecorder()
	PrometheusHandler(nil).ServeHTTP(rr2, httptest.NewRequest("GET", "/", nil))
	if rr2.Code != 200 {
		t.Errorf("nil-snap handler status = %d", rr2.Code)
	}
}

func TestDebugMuxServesPrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("grid.jobs.completed").Add(64)
	ts := httptest.NewServer(DebugMux(reg))
	defer ts.Close()
	rr := httptest.NewRecorder()
	DebugMux(reg).ServeHTTP(rr, httptest.NewRequest("GET", "/debug/prometheus", nil))
	if rr.Code != 200 {
		t.Fatalf("status = %d", rr.Code)
	}
	if !strings.Contains(rr.Body.String(), "grid_jobs_completed 64\n") {
		t.Errorf("debug mux exposition missing counter:\n%s", rr.Body.String())
	}
	checkPromGrammar(t, rr.Body.String())
}

// BenchmarkWritePrometheus keeps an eye on scrape cost for a realistically
// sized registry.
func BenchmarkWritePrometheus(b *testing.B) {
	reg := NewRegistry()
	for i := 0; i < 30; i++ {
		reg.Counter(fmt.Sprintf("c%d", i)).Add(int64(i))
		reg.Histogram(fmt.Sprintf("h%d", i), LatencyBuckets).Observe(float64(i))
	}
	snap := reg.Snapshot()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sb strings.Builder
		if err := WritePrometheus(&sb, snap); err != nil {
			b.Fatal(err)
		}
	}
}
