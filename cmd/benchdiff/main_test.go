package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func parse(t *testing.T, s string) any {
	t.Helper()
	var doc any
	if err := json.Unmarshal([]byte(s), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

func TestDiffGatesTelemetryCoverage(t *testing.T) {
	oldDoc := parse(t, `{"schema":"switchbench/telemetry","windows":189,"rounds":16,"rounds_complete":16,"rounds_aborted":0}`)

	// Fewer windows, fewer rounds, fewer completions: three regressions.
	newDoc := parse(t, `{"schema":"switchbench/telemetry","windows":150,"rounds":12,"rounds_complete":11,"rounds_aborted":1}`)
	var out bytes.Buffer
	_, regressions := diff(oldDoc, newDoc, &out)
	if regressions != 3 {
		t.Errorf("regressions = %d, want 3:\n%s", regressions, out.String())
	}
	for _, want := range []string{"! windows:", "! rounds:", "! rounds_complete:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing gated line %q:\n%s", want, out.String())
		}
	}

	// Growth in any of them does not gate; rounds_aborted never gates.
	grown := parse(t, `{"schema":"switchbench/telemetry","windows":200,"rounds":20,"rounds_complete":18,"rounds_aborted":2}`)
	out.Reset()
	if _, regressions := diff(oldDoc, grown, &out); regressions != 0 {
		t.Errorf("growth gated: %d regressions\n%s", regressions, out.String())
	}
}

func TestDiffGatesGrayStability(t *testing.T) {
	oldDoc := parse(t, `{"gray":[{"period_ms":30,"detector":"adaptive","switch_aborts":7,"token_regens":55,"victim_regens":61,"violations":0,"delivered":831}]}`)

	// More churn or a new violation: three regressions (delivered held).
	newDoc := parse(t, `{"gray":[{"period_ms":30,"detector":"adaptive","switch_aborts":9,"token_regens":80,"victim_regens":61,"violations":1,"delivered":831}]}`)
	var out bytes.Buffer
	_, regressions := diff(oldDoc, newDoc, &out)
	if regressions != 3 {
		t.Errorf("regressions = %d, want 3:\n%s", regressions, out.String())
	}
	for _, want := range []string{"! gray[0].switch_aborts:", "! gray[0].token_regens:", "! gray[0].violations:"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing gated line %q:\n%s", want, out.String())
		}
	}

	// Less churn does not gate; victim_regens never gates (the excluded
	// member's own backoff-bounded regenerations are not group churn).
	better := parse(t, `{"gray":[{"period_ms":30,"detector":"adaptive","switch_aborts":5,"token_regens":40,"victim_regens":90,"violations":0,"delivered":831}]}`)
	out.Reset()
	if _, regressions := diff(oldDoc, better, &out); regressions != 0 {
		t.Errorf("improvement gated: %d regressions\n%s", regressions, out.String())
	}
}

func TestDiffClassicGatesStillFire(t *testing.T) {
	oldDoc := parse(t, `{"failed":0,"passed":20,"delivered":474,"switching":{"shed":5}}`)
	newDoc := parse(t, `{"failed":1,"passed":19,"delivered":400,"switching":{"shed":9}}`)
	var out bytes.Buffer
	_, regressions := diff(oldDoc, newDoc, &out)
	if regressions != 4 {
		t.Errorf("regressions = %d, want 4:\n%s", regressions, out.String())
	}
}

// TestMissingGatedLeafRegresses: a gated leaf that vanishes from the new
// artifact (a lost row or summary field) is a regression, so the gate
// cannot be disarmed by dropping the field it reads. Ungated leaves may
// still vanish freely.
func TestMissingGatedLeafRegresses(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	oldPath := write("old.json", `{"failed":0,"delivered":5}`)
	newPath := write("new.json", `{}`)
	var out bytes.Buffer
	if code := run([]string{oldPath, newPath}, &out); code != 1 {
		t.Errorf("exit = %d, want 1:\n%s", code, out.String())
	}
	for _, want := range []string{"! - delivered (was 5)", "! - failed (was 0)", "2 regression(s)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("missing %q:\n%s", want, out.String())
		}
	}

	out.Reset()
	ungated := write("ungated.json", `{"failed":0,"delivered":5,"mean_ms":3.5}`)
	if code := run([]string{ungated, oldPath}, &out); code != 0 {
		t.Errorf("a vanished ungated leaf gated: exit %d\n%s", code, out.String())
	}
}

func TestFlattenDropsTiming(t *testing.T) {
	doc := map[string]any{
		"schema": "switchbench/x",
		"timing": map[string]any{"wall_ms": 12.5},
		"rows": []any{
			map[string]any{"a": 1.0},
			map[string]any{"a": 2.0, "timing": map[string]any{"wall_ms": 3.0}},
		},
	}
	flat := flatten("", doc)
	if _, ok := flat["timing.wall_ms"]; ok {
		t.Error("flatten kept the top-level timing section")
	}
	if _, ok := flat["rows[1].timing.wall_ms"]; ok {
		t.Error("flatten kept a nested timing section")
	}
	if len(flat) != 3 || flat["rows[0].a"] != 1.0 || flat["rows[1].a"] != 2.0 || flat["schema"] != "switchbench/x" {
		t.Errorf("flatten lost leaves: %v", flat)
	}
}

func TestLeaf(t *testing.T) {
	for in, want := range map[string]string{
		"failed":                      "failed",
		"rows[2].msgs_per_sec":        "msgs_per_sec",
		"series[0].members[1].p99_us": "p99_us",
	} {
		if got := leaf(in); got != want {
			t.Errorf("leaf(%q) = %q, want %q", in, got, want)
		}
	}
}
