package realtime

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"repro/internal/core/switching"
	"repro/internal/ids"
	"repro/internal/obs"
	"repro/internal/proto"
	"repro/internal/protocols/fifo"
	"repro/internal/protocols/seqorder"
	"repro/internal/protocols/tokenorder"
)

func TestNewGroupValidation(t *testing.T) {
	if _, err := NewGroup(Config{Nodes: 0}); err == nil {
		t.Error("accepted empty group")
	}
}

func TestEnvBasics(t *testing.T) {
	g, err := NewGroup(Config{Nodes: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	n := g.Node(1)
	if n.Self() != 1 || len(n.Members()) != 3 || n.Ring().Size() != 3 {
		t.Error("env basics wrong")
	}
	if n.Now() < 0 {
		t.Error("negative Now")
	}
	var mu sync.Mutex
	fired := false
	tm := n.After(5*time.Millisecond, func() {
		mu.Lock()
		fired = true
		mu.Unlock()
	})
	if !tm.Active() {
		t.Error("timer inactive before firing")
	}
	time.Sleep(50 * time.Millisecond)
	mu.Lock()
	ok := fired
	mu.Unlock()
	if !ok {
		t.Error("timer did not fire")
	}
	if tm.Active() || tm.Stop() {
		t.Error("fired timer still active/stoppable")
	}
}

func TestTimerStop(t *testing.T) {
	g, err := NewGroup(Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	var mu sync.Mutex
	fired := false
	tm := g.Node(0).After(20*time.Millisecond, func() {
		mu.Lock()
		fired = true
		mu.Unlock()
	})
	if !tm.Stop() {
		t.Error("Stop returned false")
	}
	time.Sleep(60 * time.Millisecond)
	mu.Lock()
	defer mu.Unlock()
	if fired {
		t.Error("stopped timer fired")
	}
}

// TestTimerReset re-arms a wall-clock timer from each of its states:
// pending (the earlier arm must not fire), fired, and stopped.
func TestTimerReset(t *testing.T) {
	g, err := NewGroup(Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	fires := make(chan time.Duration, 8)
	n := g.Node(0)
	tm := n.After(20*time.Millisecond, func() { fires <- n.Now() })
	expect := func(what string, notBefore time.Duration) {
		t.Helper()
		select {
		case at := <-fires:
			if at < notBefore {
				t.Fatalf("%s: fired at %v, before %v", what, at, notBefore)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s: timer did not fire", what)
		}
	}
	quiet := func(what string, d time.Duration) {
		t.Helper()
		select {
		case at := <-fires:
			t.Fatalf("%s: unexpected firing at %v", what, at)
		case <-time.After(d):
		}
	}

	start := n.Now()
	tm.Reset(80 * time.Millisecond) // pending: the 20 ms arm is cancelled
	if !tm.Active() {
		t.Error("re-armed timer inactive")
	}
	expect("pending", start+80*time.Millisecond)
	quiet("pending", 40*time.Millisecond) // and only one of the two arms fired
	if tm.Active() || tm.Stop() {
		t.Error("fired timer still active/stoppable")
	}

	start = n.Now()
	tm.Reset(10 * time.Millisecond) // fired
	expect("fired", start+10*time.Millisecond)

	tm.Reset(10 * time.Millisecond)
	if !tm.Stop() {
		t.Fatal("Stop of a re-armed timer reported false")
	}
	quiet("stopped", 40*time.Millisecond)
	start = n.Now()
	tm.Reset(10 * time.Millisecond) // stopped
	if !tm.Active() {
		t.Error("timer re-armed after Stop is inactive")
	}
	expect("stopped", start+10*time.Millisecond)
	quiet("stopped", 40*time.Millisecond)
}

// TestTimerResetFromCallback is the periodic-tick pattern on the wall
// clock: the callback re-arms its own handle from the node's loop.
func TestTimerResetFromCallback(t *testing.T) {
	g, err := NewGroup(Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	ticks := make(chan struct{}, 16)
	ready := make(chan struct{})
	var tm proto.Timer
	tm = g.Node(0).After(time.Millisecond, func() {
		<-ready
		ticks <- struct{}{}
		tm.Reset(time.Millisecond)
	})
	close(ready)
	for i := 0; i < 5; i++ {
		select {
		case <-ticks:
		case <-time.After(2 * time.Second):
			t.Fatalf("tick %d never came", i)
		}
	}
}

func TestRunExecutesOnLoop(t *testing.T) {
	g, err := NewGroup(Config{Nodes: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	ran := false
	g.Node(0).Run(func() { ran = true })
	if !ran {
		t.Error("Run did not execute")
	}
}

func TestSendValidation(t *testing.T) {
	g, err := NewGroup(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	if err := g.Node(0).Transport().Send(9, nil); err == nil {
		t.Error("send to unknown node accepted")
	}
}

func TestStopIdempotent(t *testing.T) {
	g, err := NewGroup(Config{Nodes: 2})
	if err != nil {
		t.Fatal(err)
	}
	g.Stop()
	g.Stop() // must not panic or deadlock
}

// waitFor polls cond for up to timeout.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool) bool {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(2 * time.Millisecond)
	}
	return cond()
}

// TestStacksOverRealtime runs the sequencer total-order stack on the
// goroutine runtime: the same layer code as the simulator tests.
func TestStacksOverRealtime(t *testing.T) {
	g, err := NewGroup(Config{Nodes: 3, PropDelay: time.Millisecond, Jitter: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	var mu sync.Mutex
	delivered := map[ids.ProcID][]string{}
	stacks := make([]*proto.Stack, 3)
	for i, n := range g.Nodes() {
		n := n
		p := ids.ProcID(i)
		app := proto.UpFunc(func(src ids.ProcID, payload []byte) {
			mu.Lock()
			delivered[p] = append(delivered[p], string(payload))
			mu.Unlock()
		})
		st, err := proto.Build(n, app, n.Transport(),
			seqorder.New(0), fifo.New(fifo.Config{}))
		if err != nil {
			t.Fatal(err)
		}
		stacks[i] = st
		n.Bind(st.Recv)
	}
	for i := 0; i < 5; i++ {
		i := i
		g.Node(1).Run(func() {
			if err := stacks[1].Cast([]byte(fmt.Sprintf("m%d", i))); err != nil {
				t.Error(err)
			}
		})
	}
	ok := waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for p := 0; p < 3; p++ {
			if len(delivered[ids.ProcID(p)]) != 5 {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Fatalf("incomplete delivery: %v", delivered)
	}
	mu.Lock()
	defer mu.Unlock()
	for p := 0; p < 3; p++ {
		got := delivered[ids.ProcID(p)]
		for i, b := range got {
			if b != fmt.Sprintf("m%d", i) {
				t.Fatalf("member %d out of order: %v", p, got)
			}
		}
	}
}

// TestSwitchOverRealtime runs the full switching protocol on goroutines
// — the configuration the examples use.
func TestSwitchOverRealtime(t *testing.T) {
	g, err := NewGroup(Config{Nodes: 3, PropDelay: 500 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	protos := []switching.ProtocolFactory{
		func(proto.Env) []proto.Layer {
			return []proto.Layer{seqorder.New(0), fifo.New(fifo.Config{})}
		},
		func(proto.Env) []proto.Layer {
			return []proto.Layer{tokenorder.New(tokenorder.Config{HoldDelay: time.Millisecond}), fifo.New(fifo.Config{})}
		},
	}
	var mu sync.Mutex
	delivered := map[ids.ProcID][]string{}
	switches := make([]*switching.Switch, 3)
	for i, n := range g.Nodes() {
		n := n
		p := ids.ProcID(i)
		app := proto.UpFunc(func(src ids.ProcID, payload []byte) {
			m, err := proto.DecodeApp(payload)
			if err != nil {
				return
			}
			mu.Lock()
			delivered[p] = append(delivered[p], string(m.Body))
			mu.Unlock()
		})
		var sw *switching.Switch
		n.Run(func() {
			sw, err = switching.New(n, app, n.Transport(), switching.Config{
				Protocols:     protos,
				TokenInterval: 2 * time.Millisecond,
			})
		})
		if err != nil {
			t.Fatal(err)
		}
		switches[i] = sw
		n.Bind(sw.Recv)
	}
	cast := func(p ids.ProcID, body string) {
		g.Node(p).Run(func() {
			m := proto.AppMsg{ID: proto.MakeMsgID(p, uint32(len(body))+uint32(body[len(body)-1])), Sender: p, Body: []byte(body)}
			if err := switches[p].Cast(m.Encode()); err != nil {
				t.Error(err)
			}
		})
	}
	cast(0, "before")
	g.Node(1).Run(func() { switches[1].RequestSwitch() })
	ok := waitFor(t, 5*time.Second, func() bool {
		done := false
		g.Node(0).Run(func() { done = switches[0].Epoch() == 1 })
		return done
	})
	if !ok {
		t.Fatal("switch did not complete on the realtime runtime")
	}
	cast(2, "after")
	ok = waitFor(t, 5*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		for p := 0; p < 3; p++ {
			if len(delivered[ids.ProcID(p)]) != 2 {
				return false
			}
		}
		return true
	})
	if !ok {
		mu.Lock()
		defer mu.Unlock()
		t.Fatalf("incomplete: %v", delivered)
	}
	mu.Lock()
	defer mu.Unlock()
	for p := 0; p < 3; p++ {
		got := delivered[ids.ProcID(p)]
		if got[0] != "before" || got[1] != "after" {
			t.Fatalf("member %d delivered %v", p, got)
		}
	}
}

// lockedCollector is an obs.Collector safe for the realtime runtime's
// concurrent post sites.
type lockedCollector struct {
	mu  sync.Mutex
	col *obs.Collector
}

func (l *lockedCollector) Record(e obs.Event) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.col.Record(e)
}

func (l *lockedCollector) Enabled() bool { return true }

// TestMailboxDropCounted pins the no-silent-drop contract at the
// runtime boundary: an event posted to a full mailbox increments the
// node's Dropped counter and emits an obs drop event with the mailbox
// reason, instead of vanishing.
func TestMailboxDropCounted(t *testing.T) {
	rec := &lockedCollector{col: obs.NewCollector()}
	g, err := NewGroup(Config{Nodes: 1, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Stop()
	n := g.Node(0)

	started := make(chan struct{})
	block := make(chan struct{})
	defer close(block)
	n.post(func() { close(started); <-block })
	<-started // the loop is now parked inside the blocker
	for i := 0; i < mailboxDepth; i++ {
		n.post(func() {})
	}
	if got := n.Dropped(); got != 0 {
		t.Fatalf("drop counted while the mailbox still had room: %d", got)
	}
	n.post(func() {}) // mailbox full: must be dropped, loudly
	if got := n.Dropped(); got != 1 {
		t.Fatalf("Dropped() = %d, want 1", got)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	drops := 0
	for _, e := range rec.col.Events() {
		if e.Type == obs.EvDrop {
			drops++
			if e.Proc != 0 || e.Peer != obs.NoPeer || e.Args[0] != obs.DropMailbox {
				t.Errorf("malformed mailbox drop event: %+v", e)
			}
		}
	}
	if drops != 1 {
		t.Errorf("trace has %d drop events, want 1", drops)
	}
}
