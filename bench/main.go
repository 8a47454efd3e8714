// Command bench is the repository's performance benchmark: four
// long-run workloads, measured on two clocks (virtual time, which is the
// paper's result, and host time, which is the implementation's bill),
// with an outside-in per-layer trace. See README.md in this directory.
//
//	go run ./bench -workload seq_steady -seed 1            one run, end-to-end metrics
//	go run ./bench -workload seq_steady -seed 1 -trace 1   the separate traced run, per-layer metrics
//	go run ./bench -all -json out.json                     every workload, both runs, every metric
//	go run ./bench -compare A.json B.json                  verdict per (metric, workload)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
)

func main() {
	// One processor: the simulation is one goroutine, and with a second
	// processor the collector's workers spin and park on it ~300 times a
	// second, which costs a quarter more CPU per op and makes both clocks
	// three times noisier (run-to-run range 7 % against 2.5 %). On one,
	// all of the program's work — the collector's too — is on one clock.
	runtime.GOMAXPROCS(1)
	var (
		workload = flag.String("workload", "", "workload to run: "+fmt.Sprint(workloadNames))
		seed     = flag.Int64("seed", 1, "workload seed: equal seeds give equal inputs")
		seconds  = flag.Float64("seconds", 20, "host seconds of timed repeats per run")
		trace    = flag.Int("trace", 0, "1: the traced run (per-layer metrics) instead of the end-to-end run")
		all      = flag.Bool("all", false, "run every workload, end-to-end and traced, each in its own process")
		jsonOut  = flag.String("json", "", "also write the full result (quartiles, repeats) to this file")
		compare  = flag.Bool("compare", false, "compare two -all -json files: bench -compare A.json B.json")
	)
	flag.Parse()
	o := options{seed: *seed, seconds: *seconds, trace: *trace != 0, traceDir: outDir}
	var err error
	switch {
	case *compare:
		err = runCompare(flag.Args())
	case *all:
		err = runAll(o, *jsonOut)
	case *workload != "":
		err = runOne(*workload, o, *jsonOut)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

// outDir holds what runs leave behind (traces, -all's scratch file); it
// is relative to the repository root, where the benchmark is run from.
const outDir = "bench/out"

// errIncorrect fails the exit status after the results are printed.
var errIncorrect = fmt.Errorf("a correctness check failed")

// runOne executes one run in this process, prints the report, and ends
// standard output with the one-line JSON object the driver reads.
func runOne(workload string, o options, jsonOut string) error {
	res, err := runWorkload(workload, o)
	if err != nil {
		return err
	}
	printReport(res)
	if jsonOut != "" {
		if err := writeJSON(jsonOut, res); err != nil {
			return err
		}
	}
	line, err := json.Marshal(driverLine(res))
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct || res.Failed > 0 {
		return errIncorrect
	}
	return nil
}

// driverLine is the last line of a run's standard output: the declared
// end-to-end metrics of an untraced run, the per-layer ones of a traced
// run, each at its median.
func driverLine(res *result) map[string]any {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, d := range defs {
		metrics[d.Name] = value{res.Metrics[d.Name].Median, d.Unit}
	}
	return map[string]any{
		"correct":   res.Correct && res.Failed == 0,
		"attempted": res.Attempted,
		"failed":    res.Failed,
		"metrics":   metrics,
	}
}

func printReport(res *result) {
	kind := "end-to-end"
	if res.Trace {
		kind = "traced"
	}
	fmt.Printf("== %s seed %d (%s run, %d repeats) ==\n", res.Workload, res.Seed, kind, res.Repeats)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		if d, ok := findMetric(n); ok && !d.on(res.Workload) {
			continue // declared, but not measured on this workload
		}
		if len(m.Values) > 1 {
			fmt.Printf("  %-34s %14.6g %-5s  q1 %.6g  q3 %.6g  min %.6g  max %.6g  n=%d\n",
				n, m.Median, m.Unit, m.Q1, m.Q3, m.Min, m.Max, len(m.Values))
		} else {
			fmt.Printf("  %-34s %14.6g %-5s\n", n, m.Median, m.Unit)
		}
	}
	keys := make([]string, 0, len(res.Samples))
	for k := range res.Samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("  samples %-26s %14d\n", k, res.Samples[k])
	}
	share := 0.0
	if res.Attempted > 0 {
		share = float64(res.Failed) / float64(res.Attempted)
	}
	fmt.Printf("  failed_share %g (%d of %d ops), correct=%v\n", share, res.Failed, res.Attempted, res.Correct && res.Failed == 0)
	for _, n := range res.Notes {
		fmt.Println("  !", n)
	}
}

// suite is the -all -json file: per workload, the end-to-end run and
// the traced run.
type suite struct {
	Seed     int64              `json:"seed"`
	EndToEnd map[string]*result `json:"end_to_end"`
	PerLayer map[string]*result `json:"per_layer"`
}

// runAll runs every workload's two runs, each in a process of its own
// so that set-up time and peak memory are per workload.
func runAll(o options, jsonOut string) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	tmp := outDir + "/run.json" // each child's full result, read back here
	defer os.Remove(tmp)

	s := suite{Seed: o.seed, EndToEnd: map[string]*result{}, PerLayer: map[string]*result{}}
	incorrect := false
	for _, w := range workloadNames {
		for trace, into := range []map[string]*result{s.EndToEnd, s.PerLayer} {
			cmd := exec.Command(self, "-workload", w, "-seed", fmt.Sprint(o.seed),
				"-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(trace), "-json", tmp)
			os.Remove(tmp)
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			if err := cmd.Run(); err != nil {
				if _, exited := err.(*exec.ExitError); !exited {
					return err
				}
				incorrect = true
			}
			var res result
			if err := readJSON(tmp, &res); err != nil {
				return fmt.Errorf("%s: %w", w, err)
			}
			into[w] = &res
		}
	}
	if jsonOut != "" {
		if err := writeJSON(jsonOut, s); err != nil {
			return err
		}
	}
	if incorrect {
		return errIncorrect
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, v)
}
