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
//     fields, so any drop is a real behavior change), or
//   - any of those gated leaves missing from the new artifact (a lost
//     row or summary field would otherwise disarm its gate).
//
// Everything else — latency drift, event-count changes, new fields from
// a schema bump — is printed for the record but does not gate, so CI
// can hold every smoke artifact to a committed baseline without pinning
// fields that are meant to move.
package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff <old.json> <new.json>")
		return 2
	}
	oldDoc, err := load(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		return 2
	}
	newDoc, err := load(args[1])
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
	oldFlat := flatten("", oldDoc)
	newFlat := flatten("", newDoc)

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
			if gate(k) != 0 {
				regressions++
				fmt.Fprintf(w, "! - %s (was %v)\n", k, ov)
			} else {
				fmt.Fprintf(w, "- %s (was %v)\n", k, ov)
			}
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
	switch gate(key) {
	case +1:
		return nf > of
	case -1:
		return nf < of
	}
	return false
}

// gate returns the direction in which the leaf at key regresses: +1
// when a rise regresses, -1 when a fall does, 0 when it does not gate.
func gate(key string) int {
	switch l := leaf(key); {
	case l == "failed" || strings.HasSuffix(l, "_failed"):
		return +1
	case l == "passed" || l == "delivered":
		return -1
	case l == "shed" || strings.HasSuffix(l, "_shed"):
		return +1
	case l == "switch_aborts" || l == "token_regens" || l == "violations":
		// Gray-failure stability (the E20 rows in BENCH_chaos.json):
		// recovery churn — aborted switch rounds and token
		// regenerations — at a given flap cadence and detector arm must
		// not rise against the committed baseline, and no cell may start
		// violating an always-on invariant. Deterministic per seed.
		return +1
	case l == "windows" || l == "rounds" || l == "rounds_complete":
		// Telemetry coverage (BENCH_telemetry.json summary): the sweep
		// must not sample fewer windows or audit fewer (completed)
		// switch rounds for the same seed.
		return -1
	}
	return 0
}

// load reads and decodes one artifact.
func load(path string) (any, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc any
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return doc, nil
}

// flatten turns nested JSON into "a.b[2].c" -> scalar, skipping every
// "timing" object — the only non-deterministic section of an artifact.
func flatten(prefix string, v any) map[string]any {
	out := map[string]any{}
	switch t := v.(type) {
	case map[string]any:
		for k, child := range t {
			if k == "timing" {
				continue
			}
			p := k
			if prefix != "" {
				p = prefix + "." + k
			}
			for fk, fv := range flatten(p, child) {
				out[fk] = fv
			}
		}
	case []any:
		for i, child := range t {
			for fk, fv := range flatten(fmt.Sprintf("%s[%d]", prefix, i), child) {
				out[fk] = fv
			}
		}
	default:
		out[prefix] = v
	}
	return out
}

// leaf returns the last dotted component of a flattened key (with any
// "[i]" index suffix intact): the name gates match on.
func leaf(key string) string {
	if i := strings.LastIndex(key, "."); i >= 0 {
		return key[i+1:]
	}
	return key
}
