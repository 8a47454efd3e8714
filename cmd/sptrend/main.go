// Command sptrend summarizes switchbench BENCH_*.json artifacts across
// runs: it groups the given files by schema, collects every numeric
// leaf (timing included — wall-clock drift across runs is a trend too),
// and prints a mean/std/min/max table per group, the grouped-summary
// half of a paper-style experiment pipeline (run N repeats, then reduce
// to mean ± std).
//
//	sptrend runs/*/BENCH_chaos.json
//	sptrend -match wall_ms runs/*/BENCH_chaos.json
//	sptrend -all run1/BENCH_telemetry.json run2/BENCH_telemetry.json
//
// By default only leaves that vary across the group are printed —
// deterministic artifacts from the same seed agree on almost every
// field, and the varying remainder (throughput, wall clock, or a real
// behavior change) is exactly what a trend table is for. -all prints
// every numeric leaf; -match filters keys by substring. Exit status is
// 0 on success, 2 on usage or decode errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/benchkit"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("sptrend", flag.ContinueOnError)
	match := fs.String("match", "", "only print keys containing this substring")
	all := fs.Bool("all", false, "print constant keys too, not just varying ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	paths := fs.Args()
	if len(paths) < 1 {
		fmt.Fprintln(os.Stderr, "usage: sptrend [-match substr] [-all] <BENCH_*.json> ...")
		return 2
	}
	docs := make([]any, 0, len(paths))
	for _, p := range paths {
		doc, err := benchkit.Load(p)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sptrend:", err)
			return 2
		}
		docs = append(docs, doc)
	}
	io.WriteString(w, Render(docs, *match, *all))
	return 0
}

// group is one schema's value series across the loaded artifacts.
type group struct {
	schema string
	runs   int
	series map[string][]float64
}

// Render groups the artifacts by schema and renders one trend table per
// group, schemas and keys sorted.
func Render(docs []any, match string, all bool) string {
	byName := map[string]*group{}
	for _, doc := range docs {
		flat := benchkit.Flatten("", doc, false)
		schema := "(no schema)"
		if s, ok := flat["schema"].(string); ok {
			schema = s
		}
		g := byName[schema]
		if g == nil {
			g = &group{schema: schema, series: map[string][]float64{}}
			byName[schema] = g
		}
		g.runs++
		for k, v := range flat {
			if f, ok := v.(float64); ok {
				g.series[k] = append(g.series[k], f)
			}
		}
	}
	schemas := make([]string, 0, len(byName))
	for s := range byName {
		schemas = append(schemas, s)
	}
	sort.Strings(schemas)

	var b strings.Builder
	for _, s := range schemas {
		g := byName[s]
		fmt.Fprintf(&b, "== %s (%d runs) ==\n", g.schema, g.runs)
		keys := make([]string, 0, len(g.series))
		for k := range g.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		printed := 0
		for _, k := range keys {
			if match != "" && !strings.Contains(k, match) {
				continue
			}
			st := benchkit.Summarize(g.series[k])
			// A key is "varying" when runs disagree on it or some runs
			// lack it entirely.
			if !all && st.Std == 0 && st.N == g.runs {
				continue
			}
			fmt.Fprintf(&b, "%-52s n=%-3d mean=%-14.4f std=%-12.4f min=%-14.4f max=%-.4f\n",
				k, st.N, st.Mean, st.Std, st.Min, st.Max)
			printed++
		}
		if printed == 0 {
			b.WriteString("(no varying numeric keys; rerun with -all to list everything)\n")
		}
		b.WriteString("\n")
	}
	return b.String()
}
