package main

// Outside-in tracing. The program has no spans of its own, so the
// benchmark wraps every boundary it can reach from outside: each
// proto.Layer a ProtocolFactory returns, the Env/Down/Up handed to it,
// the transport under the switch, the network's receive handler, the
// switch's Env, the application Up, and the DES step loop as the root.
// One goroutine drives the simulation, so spans nest by call stack: the
// parent of a span is the span that was open when it started, and the
// root of every tree is one DES event.
//
// A nil *tracer is the untraced configuration: every wrap method
// returns its argument unchanged, so end-to-end runs execute exactly the
// program's own code.

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"

	"repro/internal/ids"
	"repro/internal/proto"
)

type layerID int

const (
	layerApp layerID = iota
	layerSeqorder
	layerTokenorder
	layerFifo
	layerSwitching
	layerSimnet
	layerDES
	nLayers
)

var layerNames = [nLayers]string{"app", "seqorder", "tokenorder", "fifo", "switching", "simnet", "des"}

// noSpan marks a counted boundary that opens no span of its own (the
// callee is a traced layer and opens one itself).
const noSpan layerID = -1

// ringSize is how many of the most recent spans are kept for the
// Chrome-trace dump; maxCapturedFrames bounds the transport frame-size
// capture the isolated replays run on.
const (
	ringSize          = 100_000
	maxCapturedFrames = 200_000
)

type openSpan struct {
	layer layerID
	start int64
	child int64 // time covered by direct child spans
}

type spanRec struct {
	layer      layerID
	depth      int32
	start, dur int64
}

type layerAgg struct {
	selfNS     int64
	spans      uint64 // spans of this layer
	childSpans uint64 // spans opened directly under a span of this layer
	framesDown uint64 // Cast+Send calls out of the layer's bottom
	bytesDown  uint64
	timers     uint64 // Env.After calls
}

type tracer struct {
	base  time.Time
	stack []openSpan
	agg   [nLayers]layerAgg
	ring  []spanRec
	total uint64 // spans ever recorded

	wireFrames, wireBytes uint64 // transport writes (switching → simnet)
	handlerFrames         uint64 // network deliveries (simnet → switching)
	frameSizes            []int  // first maxCapturedFrames transport writes

	steps, depthSum, depthSamples uint64
}

func newTracer() *tracer {
	return &tracer{base: time.Now(), ring: make([]spanRec, 0, ringSize)}
}

func (t *tracer) clock() int64 { return int64(time.Since(t.base)) }

// enter opens a span of the given layer; exit closes the innermost one.
// Both are no-ops on a nil tracer so call sites need no guard.
func (t *tracer) enter(l layerID) {
	if t == nil {
		return
	}
	t.stack = append(t.stack, openSpan{layer: l, start: t.clock()})
}

func (t *tracer) exit() {
	if t == nil {
		return
	}
	end := t.clock()
	n := len(t.stack) - 1
	s := t.stack[n]
	t.stack = t.stack[:n]
	dur := end - s.start
	a := &t.agg[s.layer]
	a.selfNS += dur - s.child
	a.spans++
	if n > 0 {
		t.stack[n-1].child += dur
		t.agg[t.stack[n-1].layer].childSpans++
	}
	t.record(spanRec{layer: s.layer, depth: int32(n), start: s.start, dur: dur})
}

func (t *tracer) record(r spanRec) {
	if len(t.ring) < ringSize {
		t.ring = append(t.ring, r)
	} else {
		t.ring[t.total%ringSize] = r
	}
	t.total++
}

// runLoop is the root of every span tree: it steps the simulation until
// *stop or the queue empties, one des span per event. Consecutive root
// spans share their boundary clock reading, so the layers' self times
// add up to the loop's wall time exactly; what is left of a step after
// its child spans is des self time (the scheduler, simnet's own wire and
// delivery events, and the traffic generator's tick).
func (t *tracer) runLoop(step func() bool, pending func() int, stop *bool) time.Duration {
	// Spans and counts of cluster construction are not part of the run.
	t.agg = [nLayers]layerAgg{}
	t.ring, t.total = t.ring[:0], 0
	first := t.clock()
	t0 := first
	for !*stop {
		t.stack = append(t.stack[:0], openSpan{layer: layerDES, start: t0})
		if !step() {
			break
		}
		t1 := t.clock()
		root := t.stack[0]
		a := &t.agg[layerDES]
		a.selfNS += t1 - t0 - root.child
		a.spans++
		t.record(spanRec{layer: layerDES, start: t0, dur: t1 - t0})
		t0 = t1
		t.steps++
		if t.steps&1023 == 0 {
			t.depthSum += uint64(pending())
			t.depthSamples++
		}
	}
	t.stack = t.stack[:0]
	return time.Duration(t0 - first)
}

// --- wrappers ---------------------------------------------------------

// layer wraps one protocol layer. top/bottom say whether its Up/Down
// neighbour is the switching layer (whose code the call then runs in)
// or another traced layer (which opens its own span).
func (t *tracer) layer(id layerID, l proto.Layer, top, bottom bool) proto.Layer {
	if t == nil {
		return l
	}
	return &tracedLayer{t: t, id: id, inner: l, top: top, bottom: bottom}
}

type tracedLayer struct {
	t           *tracer
	id          layerID
	inner       proto.Layer
	top, bottom bool
}

var (
	_ proto.Layer      = (*tracedLayer)(nil)
	_ proto.EpochAware = (*tracedLayer)(nil)
)

func (l *tracedLayer) Init(env proto.Env, down proto.Down, up proto.Up) error {
	span := noSpan
	if l.bottom {
		span = layerSwitching
	}
	down = &tracedDown{t: l.t, from: l.id, span: span, inner: down}
	if l.top {
		up = l.t.up(layerSwitching, up)
	}
	l.t.enter(l.id)
	defer l.t.exit()
	return l.inner.Init(l.t.env(l.id, env), down, up)
}

func (l *tracedLayer) Cast(p []byte) error {
	l.t.enter(l.id)
	err := l.inner.Cast(p)
	l.t.exit()
	return err
}

func (l *tracedLayer) Send(dst ids.ProcID, p []byte) error {
	l.t.enter(l.id)
	err := l.inner.Send(dst, p)
	l.t.exit()
	return err
}

func (l *tracedLayer) Recv(src ids.ProcID, p []byte) {
	l.t.enter(l.id)
	l.inner.Recv(src, p)
	l.t.exit()
}

func (l *tracedLayer) Stop() { l.inner.Stop() }

func (l *tracedLayer) SetEpoch(epoch uint64) {
	if ea, ok := l.inner.(proto.EpochAware); ok {
		l.t.enter(l.id)
		ea.SetEpoch(epoch)
		l.t.exit()
	}
}

// tracedDown counts the frames a layer pushes down and, where the callee
// is not itself traced, runs the call in a span of the callee's layer.
type tracedDown struct {
	t     *tracer
	from  layerID
	span  layerID
	inner proto.Down
}

func (d *tracedDown) count(n int) {
	a := &d.t.agg[d.from]
	a.framesDown++
	a.bytesDown += uint64(n)
}

func (d *tracedDown) Cast(p []byte) error {
	d.count(len(p))
	if d.span == noSpan {
		return d.inner.Cast(p)
	}
	d.t.enter(d.span)
	err := d.inner.Cast(p)
	d.t.exit()
	return err
}

func (d *tracedDown) Send(dst ids.ProcID, p []byte) error {
	d.count(len(p))
	if d.span == noSpan {
		return d.inner.Send(dst, p)
	}
	d.t.enter(d.span)
	err := d.inner.Send(dst, p)
	d.t.exit()
	return err
}

// transport wraps the bottom-of-stack Down: every write is one wire
// frame leaving the switching layer for simnet.
func (t *tracer) transport(down proto.Down) proto.Down {
	if t == nil {
		return down
	}
	return &tracedTransport{t: t, inner: down}
}

type tracedTransport struct {
	t     *tracer
	inner proto.Down
}

func (d *tracedTransport) count(n int) {
	d.t.wireFrames++
	d.t.wireBytes += uint64(n)
	if len(d.t.frameSizes) < maxCapturedFrames {
		d.t.frameSizes = append(d.t.frameSizes, n)
	}
}

func (d *tracedTransport) Cast(p []byte) error {
	d.count(len(p))
	d.t.enter(layerSimnet)
	err := d.inner.Cast(p)
	d.t.exit()
	return err
}

func (d *tracedTransport) Send(dst ids.ProcID, p []byte) error {
	d.count(len(p))
	d.t.enter(layerSimnet)
	err := d.inner.Send(dst, p)
	d.t.exit()
	return err
}

// up runs deliveries into the given layer's code in a span of it.
func (t *tracer) up(id layerID, up proto.Up) proto.Up {
	if t == nil {
		return up
	}
	return proto.UpFunc(func(src ids.ProcID, p []byte) {
		t.enter(id)
		up.Deliver(src, p)
		t.exit()
	})
}

// handler wraps the receive handler bound to the network.
func (t *tracer) handler(recv func(src ids.ProcID, pkt []byte)) func(src ids.ProcID, pkt []byte) {
	if t == nil {
		return recv
	}
	return func(src ids.ProcID, pkt []byte) {
		t.handlerFrames++
		t.enter(layerSwitching)
		recv(src, pkt)
		t.exit()
	}
}

// env attributes a layer's timer callbacks to the layer, and the
// scheduling call itself to des.
func (t *tracer) env(id layerID, env proto.Env) proto.Env {
	if t == nil {
		return env
	}
	// The switch hands its (already wrapped) Env to the layers it
	// builds; re-wrapping would nest every layer timer in a switching
	// span.
	if te, ok := env.(*tracedEnv); ok {
		env = te.Env
	}
	return &tracedEnv{Env: env, t: t, id: id}
}

type tracedEnv struct {
	proto.Env
	t  *tracer
	id layerID
}

func (e *tracedEnv) After(d time.Duration, fn func()) proto.Timer {
	e.t.agg[e.id].timers++
	e.t.enter(layerDES)
	tm := e.Env.After(d, func() {
		e.t.enter(e.id)
		fn()
		e.t.exit()
	})
	e.t.exit()
	return tm
}

// --- overhead and output ------------------------------------------------

// adjustedSelf takes the tracer's own cost out of each layer's self
// time. The cost is measured, not modelled: overhead is the wall time the
// traced repeat took beyond the same repeat untraced. It is spread over
// the layers by span count: a span's bookkeeping falls half inside its
// own interval and half in its parent's (a root span has no parent, and
// with one clock read instead of two costs about that half). The adjusted
// self times therefore add up to the untraced wall. unit is the resulting
// cost of one nested span.
func (t *tracer) adjustedSelf(overhead float64) (self [nLayers]float64, unit float64) {
	var weight [nLayers]float64
	total := 0.0
	for l := layerID(0); l < nLayers; l++ {
		a := t.agg[l]
		weight[l] = float64(a.spans+a.childSpans) / 2
		total += weight[l]
	}
	if overhead > 0 && total > 0 {
		unit = overhead / total
	}
	for l := layerID(0); l < nLayers; l++ {
		self[l] = float64(t.agg[l].selfNS) - unit*weight[l]
		if self[l] < 0 {
			self[l] = 0
		}
	}
	return self, unit
}

// writeChromeTrace dumps the retained spans (oldest first) in the
// Chrome trace-event format, loadable in chrome://tracing or Perfetto.
func (t *tracer) writeChromeTrace(path string) error {
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		TS   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		PID  int     `json:"pid"`
		TID  int     `json:"tid"`
	}
	events := make([]event, 0, len(t.ring))
	start := 0
	if t.total > ringSize {
		start = int(t.total % ringSize)
	}
	for i := 0; i < len(t.ring); i++ {
		r := t.ring[(start+i)%len(t.ring)]
		events = append(events, event{Name: layerNames[r.layer], Ph: "X",
			TS: float64(r.start) / 1e3, Dur: float64(r.dur) / 1e3, PID: 1, TID: 1})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ns"}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
