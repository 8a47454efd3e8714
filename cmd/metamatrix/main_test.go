package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunDefaultish(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "proof up to the per-cell bound") {
		t.Errorf("header does not state the bound:\n%s", out.String())
	}
	if strings.Contains(out.String(), "Causal Order") {
		t.Error("extension row printed without -extensions")
	}
}

// TestRunExhaustive: the enumerator, the only mode, prints the Table 1
// rows and the extension rows with -extensions.
func TestRunExhaustive(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-extensions"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	for _, want := range []string{"proof up to the per-cell bound", "Total Order", "Causal Order"} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
	if strings.Contains(text, "-- tr_above (violates) --") {
		t.Error("counterexamples printed without -verbose")
	}
}

func TestRunVerboseWithExtensions(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-verbose", "-extensions"}, &out); err != nil {
		t.Fatal(err)
	}
	text := out.String()
	if strings.Contains(text, "randomized") {
		t.Errorf("output mentions a randomized search:\n%s", text)
	}
	rows := 0
	for _, line := range strings.Split(text, "\n") {
		if strings.HasSuffix(line, " yes") || strings.HasSuffix(line, " no") {
			rows++
		}
	}
	if rows != 10 {
		t.Errorf("table has %d rows, want 10 (8 Table 1 + 2 extensions):\n%s", rows, text)
	}
	// 14 '-' cells, each with its counterexample.
	if n := strings.Count(text, "-- tr_above (violates) --"); n != 14 {
		t.Errorf("printed %d counterexamples, want 14", n)
	}
}

// TestRunBadFlag: besides unknown flags, the flags that tuned a
// sampled search (-trials, -seed, -procs, -msgs) and -exhaustive are
// rejected — enumeration is the only mode.
func TestRunBadFlag(t *testing.T) {
	for _, args := range [][]string{
		{"-no-such-flag"}, {"-exhaustive"}, {"-trials", "20"}, {"-seed", "1"}, {"-procs", "4"}, {"-msgs", "8"},
	} {
		if err := run(args, &bytes.Buffer{}); err == nil {
			t.Errorf("flag %v accepted", args)
		}
	}
}
