package main

import (
	"fmt"
	"math"
)

// runCompare prints, per (metric, workload), both medians, the change,
// the bound and a verdict. It judges the declared end-to-end metrics and
// the workload-specific virtual-time ones, each on the workloads that
// measure it and at its Bound. The two files must be of one seed: the
// virtual-time metrics are exact only per seed, and their 2 % bound is
// narrower than what two seeds differ by.
func runCompare(args []string) error {
	if len(args) != 2 {
		return fmt.Errorf("-compare needs two files written by -all -json")
	}
	var a, b suite
	if err := readJSON(args[0], &a); err != nil {
		return err
	}
	if err := readJSON(args[1], &b); err != nil {
		return err
	}
	if a.Seed != b.Seed {
		return fmt.Errorf("%s is of seed %d and %s of seed %d: only runs of one seed compare", args[0], a.Seed, args[1], b.Seed)
	}
	fmt.Printf("%-22s %-13s %14s %14s %9s %7s  %s\n", "metric", "workload", "A median", "B median", "change", "bound", "verdict")
	bad := 0
	for _, d := range append(append([]metricDef(nil), endToEnd...), workloadVT...) {
		for _, w := range workloadNames {
			ra, rb := a.EndToEnd[w], b.EndToEnd[w]
			if !d.on(w) || ra == nil || rb == nil {
				continue
			}
			ma, okA := ra.Metrics[d.Name]
			mb, okB := rb.Metrics[d.Name]
			if !okA || !okB {
				continue
			}
			v := judge(d, ma.summary, mb.summary)
			if v == "regressed" || v == "unresolved" {
				bad++
			}
			fmt.Printf("%-22s %-13s %14.6g %14.6g %+8.2f%% %6.0f%%  %s\n",
				d.Name, w, ma.Median, mb.Median, 100*(mb.Median-ma.Median)/ma.Median, 100*d.Bound, v)
		}
	}
	for _, w := range workloadNames {
		ra, rb := a.EndToEnd[w], b.EndToEnd[w]
		if ra == nil || rb == nil {
			continue
		}
		share := func(r *result) float64 { return float64(r.Failed) / float64(r.Attempted) }
		v := "unchanged"
		if share(rb) > share(ra) {
			v = "regressed" // any increase
			bad++
		} else if share(rb) < share(ra) {
			v = "improved"
		}
		fmt.Printf("%-22s %-13s %14.6g %14.6g %9s %7s  %s\n", "failed_share", w, share(ra), share(rb), "", "any", v)
	}
	if bad > 0 {
		return fmt.Errorf("%d (metric, workload) pairs regressed or unresolved", bad)
	}
	return nil
}

// judge applies the repository's rule (choosing-metrics §6): B's median
// may be worse than A's by at most the bound; where the run-to-run
// spread — the wider of the two interquartile ranges — exceeds the
// bound the pair is unresolved, unless every repeat of B beats every
// repeat of A. A gain is claimed only beyond that spread.
func judge(d metricDef, a, b summary) string {
	if a.Median == 0 {
		if b.Median == 0 {
			return "unchanged"
		}
		return "unresolved"
	}
	sign := 1.0 // worse = larger
	if d.Better == "higher" {
		sign = -1
	}
	worse := sign * (b.Median - a.Median) / math.Abs(a.Median)
	spread := math.Max(a.Q3-a.Q1, b.Q3-b.Q1) / math.Abs(a.Median)
	bWorst, aBest := b.Max, a.Min
	if d.Better == "higher" {
		bWorst, aBest = -b.Min, -a.Max
	}
	switch {
	case bWorst < aBest:
		return "improved"
	case spread > d.Bound:
		return "unresolved"
	case worse > d.Bound:
		return "regressed"
	case worse < -spread && worse < 0:
		return "improved"
	default:
		return "unchanged"
	}
}
