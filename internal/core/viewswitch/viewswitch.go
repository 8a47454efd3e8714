// Package viewswitch implements §8 of the paper as a first-class
// mechanism: "virtually synchronous view changes can be used to switch
// protocols, and this more complicated mechanism does support the
// Virtual Synchrony property."
//
// Where the token-ring switching protocol (package switching) keeps
// senders unblocked and makes do with six meta-properties, the view
// switch runs a coordinator-driven flush:
//
//  1. the coordinator multicasts FLUSH; every member *stops sending*
//     and reports how many messages it sent in the closing epoch;
//  2. the coordinator gathers all reports and multicasts the VIEW
//     (send-count vector, new membership, application view message);
//  3. each member delivers the remaining old-epoch messages, then
//     installs the view: it delivers the view message to the
//     application, switches to the new protocol, resumes sending.
//
// Every member therefore delivers the view message at the same point of
// its delivery order — after all old-protocol and before all
// new-protocol messages — which is exactly what Virtual Synchrony needs
// and the token-ring SP cannot give (§6.1: VS is not memoryless). The
// price is the blocked-sender window, measured against the SP in
// BenchmarkViewSwitchVsSP.
//
// Membership is part of the view: a process outside the current view
// cannot multicast (Cast returns ErrNotInView), mirroring virtually
// synchronous semantics and keeping the flush accounting exact.
package viewswitch

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core/switching"
	"repro/internal/ids"
	"repro/internal/proto"
	"repro/internal/protocols/fd"
	"repro/internal/protocols/fifo"
	"repro/internal/wire"
)

// detectorChannel is the failure detector's private multiplex channel.
// It reuses the value of ids.AppChannel, which is never multiplexed.
const detectorChannel = ids.AppChannel

// ErrNotInView is returned by Cast when the caller is outside the
// current view.
var ErrNotInView = errors.New("viewswitch: sender is not in the current view")

// ErrChangeInProgress is returned when a view change is already being
// flushed.
var ErrChangeInProgress = errors.New("viewswitch: view change already in progress")

// ErrNotCoordinator is returned when a non-coordinator requests a view
// change.
var ErrNotCoordinator = errors.New("viewswitch: only the coordinator may request view changes")

// Control-channel message kinds.
const (
	kindFlush  uint8 = iota + 1 // coordinator -> all: {epoch}
	kindReport                  // member -> coordinator: {epoch, sent}
	kindView                    // coordinator -> all: {epoch, vector, members, payload}
)

// Config configures a view-switch manager.
type Config struct {
	// Protocols are the interchangeable protocols; epoch e runs on
	// Protocols[e % len(Protocols)]. One protocol is allowed (pure
	// membership changes).
	Protocols []switching.ProtocolFactory
	// Detector, if non-nil, runs a heartbeat failure detector on a
	// private channel. With AutoEvict set, the coordinator reacts to a
	// suspicion by evicting the suspect through a view change — the
	// crash tolerance the token-ring SP lacks (its token dies with the
	// member holding it).
	Detector *fd.Config
	// AutoEvict makes the coordinator evict suspected members
	// automatically: the view message is a proto.AppMsg with IsView
	// set. Requires Detector.
	AutoEvict bool
}

// Stats counts manager activity.
type Stats struct {
	ViewsInstalled uint64
	// BlockedCasts counts casts queued during a flush.
	BlockedCasts uint64
	// Buffered counts new-epoch arrivals held until installation.
	Buffered uint64
	// OutOfView counts casts rejected because the sender left the view.
	OutOfView uint64
	// StaleDropped counts arrivals for closed epochs.
	StaleDropped uint64
}

// Manager is one member's view-switch endpoint.
type Manager struct {
	cfg Config
	env proto.Env
	app proto.Up
	mux *switching.Multiplex
	// coord drives view changes: the first ring member.
	coord ids.ProcID

	ctl    *proto.Stack
	protos []*proto.Stack

	epoch uint64
	view  map[ids.ProcID]bool

	// sent counts own casts per epoch; recv counts arrivals per epoch
	// per ring position (the flush vector's currency).
	sent map[uint64]uint64
	recv map[uint64][]uint64

	// Flush state.
	flushing bool
	queued   [][]byte
	expected []uint64
	// pendingView is the VIEW message awaiting old-epoch completion, and
	// buffer the new-epoch arrivals awaiting the install. Their payloads
	// are copies, in buffers from spare, which each gets back once
	// delivered.
	pendingView *viewMsg
	buffer      map[uint64][]bufEntry
	spare       wire.Spares

	// Coordinator state.
	collecting bool
	reports    map[ids.ProcID]uint64
	// reportRecv holds each live member's per-sender arrival counts for
	// the closing epoch — the basis for a crashed member's vector entry
	// (the minimum every survivor already has).
	reportRecv  map[ids.ProcID][]uint64
	dead        map[ids.ProcID]bool
	viewTarget  []ids.ProcID
	viewPayload []byte
	started     time.Duration
	records     []Record

	detector *fd.Detector
	stopped  bool
	stats    Stats
}

type viewMsg struct {
	epoch   uint64
	vector  []uint64
	members []ids.ProcID
	payload []byte
}

type bufEntry struct {
	src     ids.ProcID
	payload []byte
}

// Record describes one completed view change, observed at the
// coordinator.
type Record struct {
	Epoch             uint64
	Started, Finished time.Duration
}

// Duration returns the flush-to-install duration at the coordinator.
func (r Record) Duration() time.Duration { return r.Finished - r.Started }

// New assembles a manager. Wire the node's incoming packets to
// (*Manager).Recv.
func New(env proto.Env, app proto.Up, transport proto.Down, cfg Config) (*Manager, error) {
	if env == nil || app == nil || transport == nil {
		return nil, fmt.Errorf("viewswitch: nil wiring")
	}
	if len(cfg.Protocols) < 1 {
		return nil, fmt.Errorf("viewswitch: need at least one protocol")
	}
	mux, err := switching.NewMultiplex(transport)
	if err != nil {
		return nil, err
	}
	m := &Manager{
		cfg:    cfg,
		env:    env,
		coord:  env.Ring().Members()[0],
		app:    app,
		mux:    mux,
		view:   make(map[ids.ProcID]bool),
		sent:   make(map[uint64]uint64),
		recv:   make(map[uint64][]uint64),
		buffer: make(map[uint64][]bufEntry),
	}
	for _, p := range env.Ring().Members() {
		m.view[p] = true
	}
	ctl, err := proto.Build(env, proto.UpFunc(m.onControl), mux.Port(ids.ControlChannel), fifo.New(fifo.Config{}))
	if err != nil {
		return nil, fmt.Errorf("viewswitch: control stack: %w", err)
	}
	m.ctl = ctl
	mux.Bind(ids.ControlChannel, proto.UpFunc(ctl.Recv))
	for i, factory := range cfg.Protocols {
		ch := ids.ProtocolChannel(i)
		stack, err := proto.Build(env, proto.UpFunc(m.onData), mux.Port(ch), factory(env)...)
		if err != nil {
			return nil, fmt.Errorf("viewswitch: protocol %d stack: %w", i, err)
		}
		m.protos = append(m.protos, stack)
		mux.Bind(ch, proto.UpFunc(stack.Recv))
	}
	if cfg.Detector != nil {
		dcfg := *cfg.Detector
		userSuspect := dcfg.OnSuspect
		dcfg.OnSuspect = func(p ids.ProcID) {
			m.onSuspect(p)
			if userSuspect != nil {
				userSuspect(p)
			}
		}
		det := fd.New(dcfg)
		if err := det.Init(env, mux.Port(detectorChannel)); err != nil {
			return nil, fmt.Errorf("viewswitch: detector: %w", err)
		}
		m.detector = det
		mux.Bind(detectorChannel, proto.UpFunc(det.Recv))
	} else if cfg.AutoEvict {
		return nil, fmt.Errorf("viewswitch: AutoEvict requires a Detector")
	}
	return m, nil
}

// Detector returns the manager's failure detector (nil if not
// configured).
func (m *Manager) Detector() *fd.Detector { return m.detector }

// Recv routes an incoming transport packet.
func (m *Manager) Recv(src ids.ProcID, pkt []byte) { m.mux.Recv(src, pkt) }

// Stop shuts the manager and its sub-stacks down.
func (m *Manager) Stop() {
	m.stopped = true
	m.ctl.Stop()
	for _, p := range m.protos {
		p.Stop()
	}
	if m.detector != nil {
		m.detector.Stop()
	}
}

// Epoch returns the current epoch.
func (m *Manager) Epoch() uint64 { return m.epoch }

// View returns the current membership.
func (m *Manager) View() []ids.ProcID {
	out := make([]ids.ProcID, 0, len(m.view))
	for _, p := range m.env.Ring().Members() {
		if m.view[p] {
			out = append(out, p)
		}
	}
	return out
}

// InView reports whether p is in the current view.
func (m *Manager) InView(p ids.ProcID) bool { return m.view[p] }

// Flushing reports whether a flush is blocking this member's sends.
func (m *Manager) Flushing() bool { return m.flushing }

// Stats returns a copy of the counters.
func (m *Manager) Stats() Stats { return m.stats }

// Records returns the view changes this member coordinated.
func (m *Manager) Records() []Record {
	out := make([]Record, len(m.records))
	copy(out, m.records)
	return out
}

// Cast multicasts an application payload. During a flush the payload is
// queued and sent in the next epoch — unlike the token-ring SP, the
// view switch blocks the send path (the §8 trade-off).
func (m *Manager) Cast(payload []byte) error {
	if m.stopped {
		return fmt.Errorf("viewswitch: stopped")
	}
	if !m.view[m.env.Self()] {
		m.stats.OutOfView++
		return ErrNotInView
	}
	if m.flushing {
		buf := make([]byte, len(payload))
		copy(buf, payload)
		m.queued = append(m.queued, buf)
		m.stats.BlockedCasts++
		return nil
	}
	return m.castEpoch(m.epoch, payload)
}

func (m *Manager) castEpoch(epoch uint64, payload []byte) error {
	e := wire.NewEncoder(10)
	e.Uvarint(epoch)
	m.sent[epoch]++
	return m.protos[epoch%uint64(len(m.protos))].Cast(e.Prepend(payload))
}

// RequestViewChange starts a view change to the given membership,
// delivering viewPayload (typically an encoded proto.AppMsg with IsView
// set) to every member at the installation point. Coordinator only.
// Every ring member is expected to be alive and to answer the flush;
// use RequestEviction when some have crashed.
func (m *Manager) RequestViewChange(members []ids.ProcID, viewPayload []byte) error {
	return m.startChange(members, nil, viewPayload)
}

// RequestEviction starts a view change that removes the given crashed
// members from the view without waiting for their flush reports. A
// crashed member's slot in the send-count vector is the minimum arrival
// count every survivor reported — messages beyond that minimum may have
// been delivered at only some survivors (the classic virtual-synchrony
// atomicity caveat at a crash boundary; stronger machinery than this
// repository implements — SAFE message stability — would be needed to
// close it).
func (m *Manager) RequestEviction(dead []ids.ProcID, viewPayload []byte) error {
	if len(dead) == 0 {
		return fmt.Errorf("viewswitch: nobody to evict")
	}
	doomed := make(map[ids.ProcID]bool, len(dead))
	for _, p := range dead {
		if p == m.coord {
			return fmt.Errorf("viewswitch: cannot evict the coordinator")
		}
		doomed[p] = true
	}
	var members []ids.ProcID
	for _, p := range m.View() {
		if !doomed[p] {
			members = append(members, p)
		}
	}
	return m.startChange(members, dead, viewPayload)
}

func (m *Manager) startChange(members, dead []ids.ProcID, viewPayload []byte) error {
	if m.env.Self() != m.coord {
		return ErrNotCoordinator
	}
	if m.collecting || m.flushing {
		return ErrChangeInProgress
	}
	if len(members) == 0 {
		return fmt.Errorf("viewswitch: empty view")
	}
	for _, p := range members {
		if !m.env.Ring().Contains(p) {
			return fmt.Errorf("viewswitch: %v is not a group member", p)
		}
	}
	m.collecting = true
	m.reports = make(map[ids.ProcID]uint64, m.env.Ring().Size())
	m.reportRecv = make(map[ids.ProcID][]uint64, m.env.Ring().Size())
	m.dead = make(map[ids.ProcID]bool, len(dead))
	for _, p := range dead {
		m.dead[p] = true
	}
	m.viewTarget = append([]ids.ProcID(nil), members...)
	m.viewPayload = append([]byte(nil), viewPayload...)
	m.started = m.env.Now()
	e := wire.NewEncoder(12)
	e.U8(kindFlush).Uvarint(m.epoch)
	return m.ctl.Cast(e.Bytes())
}

// onSuspect reacts to a failure-detector suspicion.
func (m *Manager) onSuspect(p ids.ProcID) {
	if m.stopped || m.env.Self() != m.coord || p == m.coord {
		return
	}
	if m.collecting {
		// A member died mid-flush: stop waiting for its report.
		if !m.dead[p] {
			m.dead[p] = true
			target := m.viewTarget[:0:0]
			for _, q := range m.viewTarget {
				if q != p {
					target = append(target, q)
				}
			}
			m.viewTarget = target
			m.maybeAnnounce()
		}
		return
	}
	if !m.cfg.AutoEvict || !m.view[p] {
		return
	}
	var members []ids.ProcID
	for _, q := range m.View() {
		if q != p {
			members = append(members, q)
		}
	}
	payload := m.evictPayload(members)
	if err := m.RequestEviction([]ids.ProcID{p}, payload); err == ErrChangeInProgress {
		// Retry once the current change lands.
		m.env.After(10*time.Millisecond, func() { m.onSuspect(p) })
	}
}

// evictPayload builds the app-level view message for an auto-eviction.
func (m *Manager) evictPayload(members []ids.ProcID) []byte {
	vm := proto.AppMsg{
		ID:     proto.MakeMsgID(m.coord, uint32(0xfff00000)+uint32(m.epoch)),
		Sender: m.coord,
		IsView: true,
		View:   members,
	}
	return vm.Encode()
}

// onControl handles control-channel traffic.
func (m *Manager) onControl(src ids.ProcID, pkt []byte) {
	if m.stopped {
		return
	}
	d := wire.NewDecoder(pkt)
	switch d.U8() {
	case kindFlush:
		epoch := d.Uvarint()
		if d.Err() != nil || epoch != m.epoch || m.flushing {
			return
		}
		m.flushing = true
		recv := make([]uint64, m.env.Ring().Size())
		if have := m.recv[epoch]; have != nil {
			copy(recv, have)
		}
		e := wire.NewEncoder(24 + 2*len(recv))
		e.U8(kindReport).Uvarint(epoch).Uvarint(m.sent[epoch]).Counts(recv)
		_ = m.ctl.Send(m.coord, e.Bytes())
	case kindReport:
		epoch := d.Uvarint()
		count := d.Uvarint()
		recv := d.Counts()
		if d.Err() != nil || m.env.Self() != m.coord || !m.collecting || epoch != m.epoch {
			return
		}
		m.reports[src] = count
		m.reportRecv[src] = recv
		m.maybeAnnounce()
	case kindView:
		epoch := d.Uvarint()
		vector := d.Counts()
		members := d.Procs()
		payload := d.BytesField()
		if d.Err() != nil || epoch != m.epoch || src != m.coord {
			return
		}
		m.pendingView = &viewMsg{epoch: epoch, vector: vector, members: members, payload: m.spare.Copy(payload)}
		m.expected = vector
		m.tryInstall()
	}
}

// maybeAnnounce sends the VIEW once every live member has reported.
func (m *Manager) maybeAnnounce() {
	if !m.collecting {
		return
	}
	for _, p := range m.env.Ring().Members() {
		if m.dead[p] {
			continue
		}
		if _, ok := m.reports[p]; !ok {
			return
		}
	}
	vector := make([]uint64, m.env.Ring().Size())
	for _, p := range m.env.Ring().Members() {
		pos := m.env.Ring().Position(p)
		if pos < 0 {
			continue
		}
		if !m.dead[p] {
			vector[pos] = m.reports[p]
			continue
		}
		// A crashed member cannot report: settle for the common prefix
		// every survivor already holds.
		min := uint64(0)
		first := true
		for q, recv := range m.reportRecv {
			if m.dead[q] || pos >= len(recv) {
				continue
			}
			if first || recv[pos] < min {
				min = recv[pos]
				first = false
			}
		}
		vector[pos] = min
	}
	e := wire.NewEncoder(64 + len(m.viewPayload))
	e.U8(kindView).Uvarint(m.epoch).Counts(vector).Procs(m.viewTarget).BytesField(m.viewPayload)
	m.collecting = false
	_ = m.ctl.Cast(e.Bytes())
}

// onData handles deliveries from the sub-protocol stacks.
func (m *Manager) onData(src ids.ProcID, pkt []byte) {
	d := wire.NewDecoder(pkt)
	epoch := d.Uvarint()
	if d.Err() != nil {
		return
	}
	payload := d.Remaining()
	switch {
	case epoch == m.epoch:
		if !m.view[src] {
			m.stats.StaleDropped++
			return
		}
		m.countRecv(epoch, src)
		m.app.Deliver(src, payload)
		m.tryInstall()
	case epoch > m.epoch:
		m.countRecv(epoch, src)
		m.stats.Buffered++
		m.buffer[epoch] = append(m.buffer[epoch], bufEntry{src: src, payload: m.spare.Copy(payload)})
	default:
		m.stats.StaleDropped++
	}
}

func (m *Manager) countRecv(epoch uint64, src ids.ProcID) {
	v := m.recv[epoch]
	if v == nil {
		v = make([]uint64, m.env.Ring().Size())
		m.recv[epoch] = v
	}
	if pos := m.env.Ring().Position(src); pos >= 0 {
		v[pos]++
	}
}

// tryInstall installs the pending view once every old-epoch message has
// been delivered.
func (m *Manager) tryInstall() {
	if m.pendingView == nil {
		return
	}
	have := m.recv[m.epoch]
	for pos, want := range m.expected {
		var got uint64
		if have != nil {
			got = have[pos]
		}
		if got < want {
			return
		}
	}
	v := m.pendingView
	m.pendingView = nil
	m.expected = nil
	delete(m.recv, m.epoch)
	delete(m.sent, m.epoch)
	m.epoch++
	// Install the membership.
	next := make(map[ids.ProcID]bool, len(v.members))
	for _, p := range v.members {
		next[p] = true
	}
	m.view = next
	m.stats.ViewsInstalled++
	// The view message lands exactly between the epochs — the Virtual
	// Synchrony install point.
	m.app.Deliver(m.coord, v.payload)
	m.spare.Put(v.payload)
	if m.env.Self() == m.coord {
		m.records = append(m.records, Record{Epoch: v.epoch, Started: m.started, Finished: m.env.Now()})
	}
	// Unblock: drain queued sends into the new epoch (if still in
	// view), then release buffered new-epoch arrivals.
	m.flushing = false
	queued := m.queued
	m.queued = nil
	for _, q := range queued {
		if !m.view[m.env.Self()] {
			m.stats.OutOfView++
			continue
		}
		_ = m.castEpoch(m.epoch, q)
	}
	pend := m.buffer[m.epoch]
	delete(m.buffer, m.epoch)
	for _, b := range pend {
		if !m.view[b.src] {
			m.stats.StaleDropped++
		} else {
			m.app.Deliver(b.src, b.payload)
		}
		m.spare.Put(b.payload)
	}
}
