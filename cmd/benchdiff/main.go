// Command benchdiff compares two switchbench BENCH_*.json artifacts and
// prints every changed field, ignoring the wall-clock "timing" section
// (the only non-deterministic part of an artifact).
//
//	benchdiff old.json new.json
//
// The exit status encodes the comparison: 0 when nothing regressed, 1
// on a regression, 2 on usage or decode errors. A regression is a
// delta no tracking run should wave through silently:
//
//   - "failed" counts that rose (invariant violations appeared),
//   - "passed" or "delivered" counts that fell (coverage or throughput
//     lost),
//   - "shed" counts that rose (the overload layer turned away more of
//     the same workload),
//   - "switch_aborts", "token_regens", or "violations" that rose (the
//     E20 gray-stability rows: recovery churn under flapping grew, or a
//     cell started breaching an always-on invariant), or
//   - telemetry coverage that fell: "windows", "rounds", or
//     "rounds_complete" in BENCH_telemetry.json (the sweep sampled or
//     audited less of the same seeded workload — all deterministic
//     fields, so any drop is a real behavior change).
//
// Everything else — latency drift, event-count changes, new fields from
// a schema bump — is printed for the record but does not gate, so the
// tool is useful as a non-blocking CI step against a committed
// baseline.
package main

import (
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
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff <old.json> <new.json>")
		return 2
	}
	oldDoc, err := benchkit.Load(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	newDoc, err := benchkit.Load(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	changed, regressions := diff(oldDoc, newDoc, w)
	if changed == 0 {
		fmt.Fprintln(w, "artifacts identical (timing ignored)")
	}
	if regressions > 0 {
		fmt.Fprintf(w, "\n%d regression(s)\n", regressions)
		return 1
	}
	return 0
}

// diff prints every changed leaf and returns the change and regression
// counts.
func diff(oldDoc, newDoc any, w io.Writer) (changed, regressions int) {
	oldFlat := benchkit.Flatten("", oldDoc, true)
	newFlat := benchkit.Flatten("", newDoc, true)

	keys := map[string]bool{}
	for k := range oldFlat {
		keys[k] = true
	}
	for k := range newFlat {
		keys[k] = true
	}
	sorted := make([]string, 0, len(keys))
	for k := range keys {
		sorted = append(sorted, k)
	}
	sort.Strings(sorted)

	for _, k := range sorted {
		ov, inOld := oldFlat[k]
		nv, inNew := newFlat[k]
		switch {
		case !inOld:
			fmt.Fprintf(w, "+ %s = %v\n", k, nv)
			changed++
		case !inNew:
			fmt.Fprintf(w, "- %s (was %v)\n", k, ov)
			changed++
		case ov != nv:
			if regressed(k, ov, nv) {
				regressions++
				fmt.Fprintf(w, "! %s: %v -> %v\n", k, ov, nv)
			} else {
				fmt.Fprintf(w, "  %s: %v -> %v\n", k, ov, nv)
			}
			changed++
		}
	}
	return changed, regressions
}

// regressed reports whether the (old, new) delta at this key is one of
// the gating directions. JSON numbers decode as float64. Every gated
// field is deterministic per seed, so the comparisons are exact.
func regressed(key string, ov, nv any) bool {
	of, ok1 := ov.(float64)
	nf, ok2 := nv.(float64)
	if !ok1 || !ok2 {
		return false
	}
	switch leaf := benchkit.Leaf(key); {
	case leaf == "failed" || strings.HasSuffix(leaf, "_failed"):
		return nf > of
	case leaf == "passed" || leaf == "delivered":
		return nf < of
	case leaf == "shed" || strings.HasSuffix(leaf, "_shed"):
		return nf > of
	case leaf == "switch_aborts" || leaf == "token_regens" || leaf == "violations":
		// Gray-failure stability (the E20 rows in BENCH_chaos.json):
		// recovery churn — aborted switch rounds and token
		// regenerations — at a given flap cadence and detector arm must
		// not rise against the committed baseline, and no cell may start
		// violating an always-on invariant. Deterministic per seed.
		return nf > of
	case leaf == "windows" || leaf == "rounds" || leaf == "rounds_complete":
		// Telemetry coverage (BENCH_telemetry.json summary): the sweep
		// must not sample fewer windows or audit fewer (completed)
		// switch rounds for the same seed.
		return nf < of
	}
	return false
}
