package main

import (
	"bytes"
	"encoding/json"
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
