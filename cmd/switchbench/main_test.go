package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/harness"
)

// tiny returns flags for a fast (but real) run of figure2 or all.
func tiny(extra ...string) []string {
	base := []string{
		"-measure", "400ms",
		"-warmup", "200ms",
		"-quiet",
	}
	return append(base, extra...)
}

func TestFigure2Small(t *testing.T) {
	if err := run(tiny("-experiment", "figure2", "-senders", "2")); err != nil {
		t.Fatal(err)
	}
}

func TestFigure2WithHybrid(t *testing.T) {
	if err := run(tiny("-experiment", "figure2", "-senders", "1")); err != nil {
		t.Fatal(err)
	}
}

func TestOverheadExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "overhead", "-quiet"}); err != nil {
		t.Fatal(err)
	}
}

func TestHysteresisExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "hysteresis", "-quiet"}); err != nil {
		t.Fatal(err)
	}
}

func TestUnknownExperiment(t *testing.T) {
	// "perf" was E18, retired with the instrument bench/ replaced.
	for _, name := range []string{"nope", "perf"} {
		if err := run([]string{"-experiment", name}); err == nil {
			t.Errorf("unknown experiment %q accepted", name)
		}
	}
}

// TestChaosOnlyFlagsRejected: a chaos-only flag given to an experiment
// that would ignore it fails before anything runs — naming the flag, and
// without creating the -telemetry directory.
func TestChaosOnlyFlagsRejected(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "tel")
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-experiment", "p2p", "-telemetry", dir, "-chaos-gray", "-quiet"}, "-telemetry"},
		{[]string{"-experiment", "figure2", "-schedules", "5", "-quiet"}, "-schedules"},
		{[]string{"-experiment", "overhead", "-chaos-settle", "1ms", "-quiet"}, "-chaos-settle"},
		{[]string{"-experiment", "hysteresis", "-chaos-forgery", "-quiet"}, "-chaos-forgery"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: err = %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("rejected run created the -telemetry directory (stat: %v)", err)
	}
}

// TestFigure2OnlyFlagsRejected: a flag that only figure2 reads, or
// -trace given to p2p (which records no trace), fails before anything
// runs for an experiment that would ignore it, naming the flag.
func TestFigure2OnlyFlagsRejected(t *testing.T) {
	for _, tc := range []struct {
		args []string
		flag string
	}{
		{[]string{"-experiment", "overhead", "-senders", "3", "-quiet"}, "-senders"},
		{[]string{"-experiment", "hysteresis", "-measure", "1s", "-quiet"}, "-measure"},
		{[]string{"-experiment", "p2p", "-warmup", "1s", "-quiet"}, "-warmup"},
		{[]string{"-experiment", "chaos", "-senders", "3", "-schedules", "2", "-quiet"}, "-senders"},
		{[]string{"-experiment", "p2p", "-trace", t.TempDir(), "-quiet"}, "-trace"},
	} {
		err := run(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.flag) {
			t.Errorf("%v: err = %v, want an error naming %s", tc.args, err, tc.flag)
		}
	}
}

// TestFlagScopeAcceptsReaders: every scoped flag is accepted by each
// experiment that reads it, and all accepts every flag at once.
func TestFlagScopeAcceptsReaders(t *testing.T) {
	var every []string
	for name, readers := range flagReaders {
		every = append(every, name)
		for _, e := range readers {
			if err := checkFlagScope(e, []string{name}); err != nil {
				t.Errorf("-experiment %s -%s: %v", e, name, err)
			}
		}
	}
	if err := checkFlagScope("all", every); err != nil {
		t.Errorf("-experiment all: %v", err)
	}
}

// TestNegativeSchedulesExits: a non-positive -schedules, -senders or
// -measure, or a negative -warmup, makes the command exit 1 with an
// error naming the flag, before anything runs — not panic inside the
// sweep, and not silently run the default in its place.
func TestNegativeSchedulesExits(t *testing.T) {
	if args := os.Getenv("SWITCHBENCH_RUN_MAIN"); args != "" {
		os.Args = append([]string{"switchbench", "-quiet"}, strings.Fields(args)...)
		main()
		return
	}
	for _, tc := range []struct {
		args string
		flag string
	}{
		{"-experiment chaos -schedules -1", "-schedules"},
		{"-experiment chaos -schedules 0", "-schedules"},
		{"-experiment figure2 -senders 0", "-senders"},
		{"-experiment figure2 -measure 0s", "-measure"},
		{"-experiment figure2 -warmup -1s", "-warmup"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestNegativeSchedulesExits$")
		cmd.Env = append(os.Environ(), "SWITCHBENCH_RUN_MAIN="+tc.args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 1 {
			t.Errorf("%s: exit = %v, want status 1; stderr:\n%s", tc.args, err, stderr.String())
			continue
		}
		if msg := stderr.String(); strings.Contains(msg, "panic") || !strings.Contains(msg, tc.flag) {
			t.Errorf("%s: stderr = %q, want an error naming %s and no panic", tc.args, msg, tc.flag)
		}
	}
}

// TestZeroWarmupRuns: -warmup 0s is a run measured from the start, as
// harness.RunConfig takes a zero Warmup, not an error.
func TestZeroWarmupRuns(t *testing.T) {
	if err := run([]string{"-experiment", "figure2", "-senders", "1", "-measure", "400ms", "-warmup", "0s", "-quiet"}); err != nil {
		t.Fatal(err)
	}
}

func TestBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Error("bad flag accepted")
	}
}

func TestP2PExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "p2p", "-quiet"}); err != nil {
		t.Fatal(err)
	}
}

func TestChaosExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "chaos", "-schedules", "8", "-quiet"}); err != nil {
		t.Fatal(err)
	}
}

func TestChaosForgeryExperiment(t *testing.T) {
	out := captureStdout(t, func() error {
		return run([]string{"-experiment", "chaos", "-schedules", "12",
			"-chaos-corruption", "-chaos-forgery", "-quiet"})
	})
	for _, want := range []string{"with forged frames", "forged frames injected", "auth rejections"} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("forgery sweep output missing %q:\n%s", want, out)
		}
	}
}

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) []byte {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		var buf bytes.Buffer
		_, _ = buf.ReadFrom(r)
		done <- buf.Bytes()
	}()
	runErr := fn()
	w.Close()
	os.Stdout = old
	out := <-done
	if runErr != nil {
		t.Fatal(runErr)
	}
	return out
}

// scrubArtifact parses a BENCH_*.json file and drops its timing section
// (the only non-deterministic part), returning re-marshaled bytes for
// comparison.
func scrubArtifact(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if _, ok := m["timing"]; !ok {
		t.Fatalf("%s has no timing section", path)
	}
	delete(m, "timing")
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestJSONArtifactsWritten checks that -json writes one valid
// BENCH_<experiment>.json per experiment with the expected schema tag.
func TestJSONArtifactsWritten(t *testing.T) {
	dir := t.TempDir()
	args := tiny("-experiment", "all", "-senders", "2",
		"-schedules", "4", "-parallel", "2", "-json", dir)
	if err := run(args); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"figure2", "overhead", "hysteresis", "p2p", "chaos"} {
		path := filepath.Join(dir, "BENCH_"+name+".json")
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Errorf("missing artifact: %v", err)
			continue
		}
		var m map[string]any
		if err := json.Unmarshal(raw, &m); err != nil {
			t.Errorf("%s: invalid JSON: %v", path, err)
			continue
		}
		if got := m["schema"]; got != "switchbench/"+name {
			t.Errorf("%s: schema = %v", path, got)
		}
		if got := m["version"]; got != float64(harness.BenchSchemaVersion) {
			t.Errorf("%s: version = %v", path, got)
		}
		timing, ok := m["timing"].(map[string]any)
		if !ok {
			t.Errorf("%s: no timing section", path)
			continue
		}
		if timing["parallel"] != float64(2) {
			t.Errorf("%s: timing.parallel = %v", path, timing["parallel"])
		}
		if timing["wall_ms"] == float64(0) {
			t.Errorf("%s: timing.wall_ms is zero", path)
		}
	}
}

// TestParallelOutputByteIdentical is the CLI-level acceptance check:
// the rendered tables on stdout and the JSON artifacts (minus the
// wall-clock timing section) are byte-identical at -parallel 1 and
// -parallel 4.
func TestParallelOutputByteIdentical(t *testing.T) {
	runAt := func(workers string) (stdout []byte, dir string) {
		dir = t.TempDir()
		args := tiny("-experiment", "all", "-senders", "3",
			"-schedules", "6", "-parallel", workers, "-json", dir, "-trace", dir)
		stdout = captureStdout(t, func() error { return run(args) })
		return stdout, dir
	}
	seqOut, seqDir := runAt("1")
	parOut, parDir := runAt("4")
	if !bytes.Equal(seqOut, parOut) {
		t.Errorf("stdout differs between -parallel 1 and 4:\n--- parallel 1 ---\n%s\n--- parallel 4 ---\n%s",
			seqOut, parOut)
	}
	for _, name := range []string{"figure2", "overhead", "hysteresis", "p2p", "chaos"} {
		file := "BENCH_" + name + ".json"
		seq := scrubArtifact(t, filepath.Join(seqDir, file))
		par := scrubArtifact(t, filepath.Join(parDir, file))
		if !bytes.Equal(seq, par) {
			t.Errorf("%s differs between -parallel 1 and 4:\n%s\nvs\n%s", file, seq, par)
		}
	}
	// Traces have no timing section at all: the raw bytes must match.
	for _, name := range []string{"figure2", "overhead", "hysteresis", "chaos"} {
		file := "TRACE_" + name + ".jsonl"
		seq, err := os.ReadFile(filepath.Join(seqDir, file))
		if err != nil {
			t.Errorf("missing trace: %v", err)
			continue
		}
		par, err := os.ReadFile(filepath.Join(parDir, file))
		if err != nil {
			t.Errorf("missing trace: %v", err)
			continue
		}
		if !bytes.Equal(seq, par) {
			t.Errorf("%s differs between -parallel 1 and 4 (%d vs %d bytes)",
				file, len(seq), len(par))
		}
		if len(seq) == 0 && name == "chaos" {
			t.Errorf("%s is empty — chaos runs should always record events", file)
		}
	}
}

// TestChaosFailureStillWritesArtifact: when schedules violate
// invariants, switchbench must both return an error (non-zero exit) and
// still have written the chaos artifact recording the failures.
func TestChaosFailureStillWritesArtifact(t *testing.T) {
	dir := t.TempDir()
	// A 1ns settle/drain window starves the liveness probes (propagation
	// alone takes ~300µs), so schedules fail invariants deterministically.
	err := run([]string{"-experiment", "chaos", "-schedules", "3", "-quiet",
		"-chaos-settle", "1ns", "-chaos-drain", "1ns", "-json", dir})
	path := filepath.Join(dir, "BENCH_chaos.json")
	raw, readErr := os.ReadFile(path)
	if readErr != nil {
		t.Fatalf("failing sweep left no artifact: %v", readErr)
	}
	var m map[string]any
	if jsonErr := json.Unmarshal(raw, &m); jsonErr != nil {
		t.Fatalf("artifact invalid: %v", jsonErr)
	}
	if failed, _ := m["failed"].(float64); failed > 0 {
		if err == nil {
			t.Error("invariant violations did not propagate as an error")
		}
		failures, ok := m["failures"].([]any)
		if !ok || len(failures) == 0 {
			t.Fatal("artifact omits the failures list")
		}
		// Every failure record must carry the flight recorder's tail of
		// events leading up to the violation.
		first, _ := failures[0].(map[string]any)
		trace, _ := first["trace"].([]any)
		if len(trace) == 0 {
			t.Error("failure record has no flight-recorder trace")
		}
	} else if err != nil {
		t.Errorf("no recorded failures but run returned %v", err)
	}
}

// TestOutputDirValidatedUpFront: a -json or -trace path colliding with
// an existing file must fail before any experiment runs.
func TestOutputDirValidatedUpFront(t *testing.T) {
	file := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if err := run(tiny("-experiment", "figure2", "-senders", "1", "-json", file)); err == nil {
		t.Error("-json pointing at a file accepted")
	}
	if err := run(tiny("-experiment", "figure2", "-senders", "1", "-trace", file)); err == nil {
		t.Error("-trace pointing at a file accepted")
	}
	// Both must fail fast — before the (hundreds of ms) experiment runs.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("directory validation took %v — ran the experiment first?", elapsed)
	}
}
