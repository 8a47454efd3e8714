package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

func sampleTrace() []Event {
	return []Event{
		TokenPass(time.Millisecond, 0, 1, 1, 0, 0),
		Phase(2*time.Millisecond, 1, 2, 0, 0),
		SwitchStart(3*time.Millisecond, 0, 0, 0),
		SwitchComplete(34*time.Millisecond, 0, 0, 0, 31*time.Millisecond),
		EpochAdvance(35*time.Millisecond, 1, 1),
		WedgeTimeout(40*time.Millisecond, 2, 3),
		Heal(50 * time.Millisecond),
		FaultSet(60*time.Millisecond, 100, 10, time.Millisecond),
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	in := sampleTrace()
	b, err := MarshalJSONL(in)
	if err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(b, []byte("\n")); got != len(in) {
		t.Fatalf("%d lines for %d events", got, len(in))
	}
	out, err := ReadJSONL(bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip lost events: %d vs %d", len(out), len(in))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("event %d mangled:\n in: %+v\nout: %+v", i, in[i], out[i])
		}
	}
}

func TestJSONLDeterministicBytes(t *testing.T) {
	a, err := MarshalJSONL(sampleTrace())
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarshalJSONL(sampleTrace())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Error("same trace produced different bytes")
	}
	// The heal event carries no peer/mode/epoch: those keys must be
	// absent, not zero-valued, so the format stays compact.
	if strings.Contains(string(a), `"mode":""`) || strings.Contains(string(a), `"peer":null`) {
		t.Errorf("empty fields leaked into the wire format:\n%s", a)
	}
}

func TestValidateJSONL(t *testing.T) {
	good, err := MarshalJSONL(MergeRuns([][]Event{sampleTrace()}))
	if err != nil {
		t.Fatal(err)
	}
	n, err := ValidateJSONL(bytes.NewReader(good))
	if err != nil || n != len(sampleTrace()) {
		t.Fatalf("valid trace rejected: n=%d err=%v", n, err)
	}

	bad := []struct {
		name string
		line string
	}{
		{"garbage", "not json"},
		{"unknown type", `{"at_ns":1,"type":"nope","proc":0}`},
		{"unknown mode", `{"at_ns":1,"type":"token_pass","proc":0,"mode":"WAT"}`},
		{"negative time", `{"at_ns":-5,"type":"heal","proc":-1}`},
		{"too many args", `{"at_ns":1,"type":"drop","proc":0,"args":[1,2,3,4]}`},
	}
	for _, c := range bad {
		if _, err := ValidateJSONL(strings.NewReader(c.line + "\n")); err == nil {
			t.Errorf("%s accepted", c.name)
		}
	}

	// Time must be monotone within a run, and runs must not interleave.
	back := `{"at_ns":10,"type":"heal","proc":-1}` + "\n" + `{"at_ns":5,"type":"heal","proc":-1}` + "\n"
	if _, err := ValidateJSONL(strings.NewReader(back)); err == nil {
		t.Error("backwards time accepted")
	}
	interleave := `{"at_ns":1,"run":1,"type":"heal","proc":-1}` + "\n" + `{"at_ns":2,"type":"heal","proc":-1}` + "\n"
	if _, err := ValidateJSONL(strings.NewReader(interleave)); err == nil {
		t.Error("interleaved runs accepted")
	}
	// A new run may rewind the clock.
	reset := `{"at_ns":10,"type":"heal","proc":-1}` + "\n" + `{"at_ns":1,"run":1,"type":"heal","proc":-1}` + "\n"
	if _, err := ValidateJSONL(strings.NewReader(reset)); err != nil {
		t.Errorf("run boundary clock reset rejected: %v", err)
	}
}

func TestChromeTraceSpans(t *testing.T) {
	b, err := ChromeTrace(MergeRuns([][]Event{sampleTrace()}))
	if err != nil {
		t.Fatal(err)
	}
	s := string(b)
	for _, want := range []string{`"switch e0"`, `"drain e0"`, `"wedge timeout"`, `"heal"`, `"traceEvents"`} {
		if !strings.Contains(s, want) {
			t.Errorf("chrome trace missing %s:\n%s", want, s)
		}
	}
	// The switch span must carry the measured 31 ms duration.
	if !strings.Contains(s, `"dur": 31000`) {
		t.Errorf("switch span duration missing:\n%s", s)
	}
	// Token passes are JSONL-only.
	if strings.Contains(s, "token_pass") {
		t.Error("token passes leaked into the chrome trace")
	}
	a, _ := ChromeTrace(MergeRuns([][]Event{sampleTrace()}))
	if !bytes.Equal(a, b) {
		t.Error("chrome trace bytes not deterministic")
	}
}
