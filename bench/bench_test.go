package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// testScale runs every workload at 1/100 of its frozen size.
const testScale = 100

func testOptions(trace bool) options {
	return options{seed: 7, seconds: 0, trace: trace, scale: testScale}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

func declare(defs []metricDef, gates bool) []declared {
	out := make([]declared, len(defs))
	for i, d := range defs {
		out[i] = declared{Name: d.Name, Unit: d.Unit, Better: d.Better}
		if gates {
			out[i].Bound = d.Gate
		}
	}
	return out
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metric
// tables in metrics.go in step: same workloads, same names, units,
// directions and gates.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	f := readBenchmarkFile(t)
	var names []string
	for _, w := range f.Workloads {
		names = append(names, w.Name)
		if w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %s: BENCHMARK.json why differs from workloadWhy", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads: BENCHMARK.json has %v, code has %v", names, workloadNames)
	}
	if want := declare(endToEnd, true); !reflect.DeepEqual(f.EndToEnd, want) {
		t.Errorf("end_to_end: BENCHMARK.json has\n%+v\ncode has\n%+v", f.EndToEnd, want)
	}
	if want := declare(perLayer, false); !reflect.DeepEqual(f.PerLayer, want) {
		t.Errorf("per_layer: BENCHMARK.json has\n%+v\ncode has\n%+v", f.PerLayer, want)
	}
}

func keys(m map[string]any) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func declaredNames(ds []declared) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.Name
	}
	sort.Strings(out)
	return out
}

// hostSide reports whether a metric depends on the host clock or
// allocator; everything else must repeat exactly at one seed.
func hostSide(name string) bool {
	for _, s := range []string{"_ns_", "self_share", "iso_", "overhead_ratio", "span_cost", "setup_s",
		"host_ops", "cpu_ops", "wall_ops", "box_slowdown", "alloc", "peak_rss"} {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

// TestWorkloads runs every workload twice, end-to-end and traced, and
// checks that each run is correct, prints exactly the declared metric
// set, and repeats its virtual-time metrics and layer counts bit for
// bit. A traced run that passes has also shown that the wrappers left
// the simulation untouched and that layer self times add up to the
// traced wall within 1 % — runs note either as a failure. On a workload
// that bypasses a layer, that layer's metrics must read 0.
func TestWorkloads(t *testing.T) {
	f := readBenchmarkFile(t)
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := declaredNames(f.EndToEnd)
			if trace {
				want = declaredNames(f.PerLayer)
			}
			var runs [2]*result
			for i := range runs {
				res, err := runWorkload(w, testOptions(trace))
				if err != nil {
					t.Fatalf("%s trace=%v: %v", w, trace, err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("%s trace=%v: correct=%v failed=%d attempted=%d notes=%v",
						w, trace, res.Correct, res.Failed, res.Attempted, res.Notes)
				}
				line := driverLine(res)
				b, err := json.Marshal(line["metrics"])
				if err != nil {
					t.Fatal(err)
				}
				var printed map[string]any
				if err := json.Unmarshal(b, &printed); err != nil {
					t.Fatal(err)
				}
				if got := keys(printed); !reflect.DeepEqual(got, want) {
					t.Errorf("%s trace=%v prints %v, BENCHMARK.json declares %v", w, trace, got, want)
				}
				runs[i] = res
			}
			for name, a := range runs[0].Metrics {
				if b := runs[1].Metrics[name]; !hostSide(name) && a.Median != b.Median {
					t.Errorf("%s trace=%v: %s is %v in one run and %v in the next", w, trace, name, a.Median, b.Median)
				}
			}
			if !trace {
				for _, d := range endToEnd {
					if runs[0].Metrics[d.Name].Median == 0 {
						t.Errorf("%s: end-to-end metric %s is 0", w, d.Name)
					}
				}
				continue
			}
			// The predicted-no-change pairings of the per-layer table.
			for _, d := range perLayer {
				v := runs[0].Metrics[d.Name].Median
				if !d.on(w) && v != 0 {
					t.Errorf("%s: %s = %v on a workload that bypasses it, want 0", w, d.Name, v)
				}
				if d.on(w) && strings.HasSuffix(d.Name, ".calls_per_op") && v <= 0 {
					t.Errorf("%s: %s = %v on a workload that runs the layer, want > 0", w, d.Name, v)
				}
			}
		}
	}
}

// TestTracedRunMatchesUntraced compares a traced and an untraced repeat
// directly: same digest, same latency quantiles.
func TestTracedRunMatchesUntraced(t *testing.T) {
	for _, spec := range trafficSpecs {
		spec = spec.scaled(testScale)
		ticks := spec.schedule(3)
		rec := newRecorder(spec.members, len(ticks)*spec.burst)
		plain, err := runTraffic(spec, 3, ticks, rec, nil, spec.virtual+spec.drain)
		if err != nil {
			t.Fatal(err)
		}
		plainDigest, plainLat := rec.digest(plain), rec.latencies(nil)
		tr := newTracer()
		traced, err := runTraffic(spec, 3, ticks, rec, tr, spec.virtual+spec.drain)
		if err != nil {
			t.Fatal(err)
		}
		if d := rec.digest(traced); d != plainDigest {
			t.Errorf("%s: digest %x traced, %x untraced", spec.name, d, plainDigest)
		}
		lat := rec.latencies(nil)
		for _, q := range []float64{0.5, 0.99} {
			if a, b := quantile(plainLat, q), quantile(lat, q); a != b {
				t.Errorf("%s: p%v latency %v untraced, %v traced", spec.name, 100*q, a, b)
			}
		}
		// Raw self times add up to the loop's wall exactly.
		var sum int64
		for _, a := range tr.agg {
			sum += a.selfNS
		}
		if wall := traced.wall.Nanoseconds(); sum > wall || float64(sum) < 0.99*float64(wall) {
			t.Errorf("%s: layer self times sum to %d ns, traced wall %d ns", spec.name, sum, wall)
		}
	}
}

// TestCheckerCatchesInjectedFaults: an application that drops one
// delivery, and one that swaps two, each fail ops.
func TestCheckerCatchesInjectedFaults(t *testing.T) {
	spec := trafficSpecs[2].scaled(testScale) // paper_switch: epochs change too
	ticks := spec.schedule(5)
	rec := newRecorder(spec.members, len(ticks)*spec.burst)
	if _, err := runTraffic(spec, 5, ticks, rec, nil, spec.virtual+spec.drain); err != nil {
		t.Fatal(err)
	}
	if v := checkTraffic(rec); v.failed != 0 {
		t.Fatalf("clean run fails %d ops: %v", v.failed, v.notes)
	}
	// Two deliveries at member 3, from the middle of the log.
	var at []int
	for i := len(rec.msg) / 2; len(at) < 2; i++ {
		if rec.member[i] == 3 {
			at = append(at, i)
		}
	}
	i, j := at[0], at[1]

	rec.msg[i], rec.msg[j] = rec.msg[j], rec.msg[i]
	if v := checkTraffic(rec); v.failed == 0 {
		t.Error("swapping two deliveries at one member failed no op")
	}
	rec.msg[i], rec.msg[j] = rec.msg[j], rec.msg[i]
	if v := checkTraffic(rec); v.failed != 0 {
		t.Fatalf("swapping back still fails %d ops: %v", v.failed, v.notes)
	}

	rec.msg = append(rec.msg[:i], rec.msg[i+1:]...)
	rec.member = append(rec.member[:i], rec.member[i+1:]...)
	rec.at = append(rec.at[:i], rec.at[i+1:]...)
	if v := checkTraffic(rec); v.failed == 0 {
		t.Error("dropping one delivery at one member failed no op")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Better: "lower", Bound: 0.10}
	higher := metricDef{Better: "higher", Bound: 0.10}
	s := func(vs ...float64) summary { return summarize(vs) }
	for _, c := range []struct {
		name string
		d    metricDef
		a, b summary
		want string
	}{
		{"exact equal", lower, s(5), s(5), "unchanged"},
		{"exact worse beyond bound", lower, s(5), s(6), "regressed"},
		{"exact worse within bound", lower, s(5), s(5.2), "unchanged"},
		{"exact better", lower, s(5), s(4.9), "improved"},
		{"every repeat better", higher, s(100, 101, 102), s(110, 111, 150), "improved"},
		{"noisy overlap", higher, s(80, 100, 120), s(85, 100, 118), "unresolved"},
		{"steady drop", higher, s(100, 101, 102), s(80, 81, 82), "regressed"},
		{"steady same", higher, s(100, 101, 102), s(100.5, 101, 101.5), "unchanged"},
	} {
		if got := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

// TestCompareHoldsIssueBounds pins what -compare judges by: the issue's
// bounds, not BENCHMARK.json's wider gates, and only between files of
// one seed.
func TestCompareHoldsIssueBounds(t *testing.T) {
	write := func(name string, seed int64, tail, ops float64) string {
		r := newResult("seq_steady", options{seed: seed})
		r.Attempted = 1
		r.set("vt_tail_ms", exact("ms", tail))
		r.set("host_ops_per_s", exact("1/s", ops))
		path := filepath.Join(t.TempDir(), name)
		s := suite{Seed: seed, EndToEnd: map[string]*result{"seq_steady": r}}
		if err := writeJSON(path, s); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("A.json", 1, 1.00, 500e3)
	for _, c := range []struct {
		name string
		b    string
		ok   bool
	}{
		{"same numbers", write("B.json", 1, 1.00, 500e3), true},
		{"latency 9 % worse", write("B.json", 1, 1.09, 500e3), false},    // inside the 10 % gate
		{"throughput 20 % down", write("B.json", 1, 1.00, 400e3), false}, // inside the 25 % gate
		{"another seed", write("B.json", 2, 1.00, 500e3), false},
	} {
		if err := runCompare([]string{base, c.b}); (err == nil) != c.ok {
			t.Errorf("%s: runCompare returned %v", c.name, err)
		}
	}
}
