package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

func writeSample(t *testing.T) string {
	t.Helper()
	events := obs.MergeRuns([][]obs.Event{{
		obs.TokenPass(time.Millisecond, 0, 1, 1, 0, 0),
		obs.SwitchStart(3*time.Millisecond, 0, 0, 0),
		obs.SwitchComplete(34*time.Millisecond, 0, 0, 0, 31*time.Millisecond),
		obs.Heal(40 * time.Millisecond),
	}})
	b, err := obs.MarshalJSONL(events)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckValidTrace(t *testing.T) {
	path := writeSample(t)
	var out bytes.Buffer
	if err := run([]string{"-check", path}, nil, &out); err != nil {
		t.Fatalf("check failed on a valid trace: %v", err)
	}
	if !strings.Contains(out.String(), "4 events ok") {
		t.Errorf("check output = %q", out.String())
	}
}

func TestCheckRejectsBadTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.jsonl")
	if err := os.WriteFile(path, []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-check", path}, nil, &bytes.Buffer{}); err == nil {
		t.Fatal("check accepted a corrupt trace")
	}
	if err := run([]string{"-check"}, nil, &bytes.Buffer{}); err == nil {
		t.Fatal("check accepted an empty file list")
	}
}

func TestConvertFileAndStdout(t *testing.T) {
	path := writeSample(t)
	var out bytes.Buffer
	if err := run([]string{path}, nil, &out); err != nil {
		t.Fatal(err)
	}
	s := out.String()
	for _, want := range []string{`"traceEvents"`, `"switch e0"`, `"heal"`} {
		if !strings.Contains(s, want) {
			t.Errorf("chrome trace missing %s", want)
		}
	}
}

func TestConvertToOutputFile(t *testing.T) {
	path := writeSample(t)
	dst := filepath.Join(t.TempDir(), "out.trace.json")
	if err := run([]string{"-o", dst, path}, nil, &bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"traceEvents"`) {
		t.Error("output file is not a chrome trace")
	}
}

func TestConvertFromStdin(t *testing.T) {
	events := []obs.Event{obs.Heal(time.Second)}
	b, err := obs.MarshalJSONL(events)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(nil, bytes.NewReader(b), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), `"heal"`) {
		t.Error("stdin conversion lost the event")
	}
	if err := run([]string{"a.jsonl", "b.jsonl"}, nil, &out); err == nil {
		t.Error("multiple convert inputs accepted")
	}
}
