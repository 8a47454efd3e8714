package simnet

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/obs"
)

func newNet(t *testing.T, cfg Config) (*des.Sim, *Network) {
	t.Helper()
	sim := des.New(1)
	net, err := New(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sim, net
}

// counted attaches a fresh registry to net: the network counts its
// faults only in the events it emits.
func counted(net *Network) *obs.Metrics {
	m := obs.NewMetrics()
	net.SetRecorder(m)
	return m
}

// total sums the events of type et over every member of m, network-wide
// events (obs.NoProc) included.
func total(m *obs.Metrics, et obs.EventType) uint64 {
	var n uint64
	for _, p := range m.Procs() {
		n += m.Count(p, et)
	}
	return n
}

type rcvd struct {
	src ids.ProcID
	at  time.Duration
	b   []byte
}

// collect records p's deliveries. A delivered payload is borrowed for
// the call, so each is kept as a copy.
func collect(t *testing.T, sim *des.Sim, net *Network, p ids.ProcID) *[]rcvd {
	t.Helper()
	out := &[]rcvd{}
	if err := net.Bind(p, func(src ids.ProcID, b []byte) {
		*out = append(*out, rcvd{src, sim.Now(), bytes.Clone(b)})
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Nodes: 0},
		{Nodes: 1, PropDelay: -time.Second},
		{Nodes: 1, BitsPerSecond: -1},
		{Nodes: 1, FrameOverhead: -1},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: Validate accepted bad config %+v", i, cfg)
		}
	}
	if err := Ethernet10Mbit(10).Validate(); err != nil {
		t.Errorf("Ethernet10Mbit invalid: %v", err)
	}
	_, net := newNet(t, Config{Nodes: 1})
	for i, f := range [][2]float64{{1.0, 0}, {-0.1, 0}, {0, 1.0}} {
		if err := net.SetFaults(f[0], f[1], 0); err == nil {
			t.Errorf("case %d: SetFaults accepted drop %v, dup %v", i, f[0], f[1])
		}
	}
}

func TestUnicastDeliversWithLatency(t *testing.T) {
	cfg := Config{Nodes: 2, PropDelay: time.Millisecond}
	sim, net := newNet(t, cfg)
	got := collect(t, sim, net, 1)
	if err := net.Unicast(0, 1, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatalf("delivered %d packets, want 1", len(*got))
	}
	r := (*got)[0]
	if r.src != 0 || string(r.b) != "hi" {
		t.Errorf("got src=%v body=%q", r.src, r.b)
	}
	if r.at != time.Millisecond {
		t.Errorf("arrival at %v, want 1ms", r.at)
	}
}

func TestUnicastRangeChecks(t *testing.T) {
	_, net := newNet(t, Config{Nodes: 2})
	if err := net.Unicast(0, 5, nil); err == nil {
		t.Error("unicast to unknown node succeeded")
	}
	if err := net.Unicast(5, 0, nil); err == nil {
		t.Error("unicast from unknown node succeeded")
	}
	if err := net.Multicast(5, nil); err == nil {
		t.Error("multicast from unknown node succeeded")
	}
	if err := net.InjectForged(0, 9, []byte("x")); err == nil {
		t.Error("inject to unknown node succeeded")
	}
	if err := net.Bind(9, nil); err == nil {
		t.Error("bind to unknown node succeeded")
	}
}

func TestSelfUnicastLoopsBack(t *testing.T) {
	sim, net := newNet(t, Config{Nodes: 1, PropDelay: time.Millisecond})
	got := collect(t, sim, net, 0)
	if err := net.Unicast(0, 0, []byte("me")); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatalf("self unicast delivered %d, want 1", len(*got))
	}
	if (*got)[0].at != 0 {
		t.Errorf("loopback took %v, want 0 (no wire crossing)", (*got)[0].at)
	}
}

func TestMulticastReachesAllIncludingSender(t *testing.T) {
	sim, net := newNet(t, Config{Nodes: 3, PropDelay: time.Millisecond})
	outs := make([]*[]rcvd, 3)
	for i := 0; i < 3; i++ {
		outs[i] = collect(t, sim, net, ids.ProcID(i))
	}
	if err := net.Multicast(1, []byte("all")); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	for i, out := range outs {
		if len(*out) != 1 {
			t.Fatalf("node %d received %d packets, want 1", i, len(*out))
		}
	}
	// Sender's loopback is not delayed by propagation.
	if (*outs[1])[0].at >= (*outs[0])[0].at {
		t.Errorf("sender heard its multicast at %v, others at %v — loopback should be earlier",
			(*outs[1])[0].at, (*outs[0])[0].at)
	}
}

func TestTransmissionTimeAndWireSerialization(t *testing.T) {
	// 10 Mbit/s, 1250-byte payload + 0 overhead = 1ms of wire time.
	cfg := Config{Nodes: 3, BitsPerSecond: 10e6}
	sim, net := newNet(t, cfg)
	got := collect(t, sim, net, 2)
	payload := make([]byte, 1250)
	if err := net.Unicast(0, 2, payload); err != nil {
		t.Fatal(err)
	}
	if err := net.Unicast(1, 2, payload); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 2 {
		t.Fatalf("delivered %d, want 2", len(*got))
	}
	if (*got)[0].at != time.Millisecond {
		t.Errorf("first packet at %v, want 1ms", (*got)[0].at)
	}
	// Second transmission had to wait for the shared wire.
	if (*got)[1].at != 2*time.Millisecond {
		t.Errorf("second packet at %v, want 2ms (wire serialization)", (*got)[1].at)
	}
}

// TestRoundRobinFairness pins the medium-arbitration property the
// switching protocol's liveness depends on (see the Network doc
// comment): a node with a huge backlog must not starve other nodes —
// their frames get the wire within about one frame time per contender,
// while the flooder's own queue drains serially.
func TestRoundRobinFairness(t *testing.T) {
	cfg := Config{Nodes: 3, BitsPerSecond: 10e6} // 1250 bytes = 1ms wire time
	sim, net := newNet(t, cfg)
	got := collect(t, sim, net, 2)
	payload := make([]byte, 1250)
	// Node 0 floods 50 frames; node 1 sends a single frame afterwards.
	for i := 0; i < 50; i++ {
		if err := net.Unicast(0, 2, payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := net.Unicast(1, 2, append(payload, 1)); err != nil { // distinguishable length
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 51 {
		t.Fatalf("delivered %d, want 51", len(*got))
	}
	var singleAt time.Duration
	for _, r := range *got {
		if r.src == 1 {
			singleAt = r.at
		}
	}
	// Round-robin: node 1's frame goes second or third, not 51st.
	if singleAt > 3*time.Millisecond {
		t.Errorf("node 1's frame starved until %v behind node 0's backlog", singleAt)
	}
	// The flooder's last frame still pays for its whole queue.
	last := (*got)[len(*got)-1]
	if last.at < 50*time.Millisecond {
		t.Errorf("flooder finished suspiciously early at %v", last.at)
	}
}

func TestReceiveCPUQueues(t *testing.T) {
	cfg := Config{Nodes: 2, RecvCPU: time.Millisecond}
	sim, net := newNet(t, cfg)
	got := collect(t, sim, net, 1)
	for i := 0; i < 3; i++ {
		if err := net.Unicast(0, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 3 {
		t.Fatalf("delivered %d, want 3", len(*got))
	}
	// Packets all arrive at t=0 but the receiver's CPU serializes them
	// 1ms apart.
	for i, r := range *got {
		want := time.Duration(i+1) * time.Millisecond
		if r.at != want {
			t.Errorf("packet %d processed at %v, want %v", i, r.at, want)
		}
	}
}

func TestSendCPUQueues(t *testing.T) {
	cfg := Config{Nodes: 2, SendCPU: time.Millisecond}
	sim, net := newNet(t, cfg)
	got := collect(t, sim, net, 1)
	for i := 0; i < 2; i++ {
		if err := net.Unicast(0, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if (*got)[0].at != time.Millisecond || (*got)[1].at != 2*time.Millisecond {
		t.Errorf("send CPU did not serialize: %v, %v", (*got)[0].at, (*got)[1].at)
	}
}

func TestDropInjection(t *testing.T) {
	sim, net := newNet(t, Config{Nodes: 2})
	if err := net.SetFaults(0.5, 0, 0); err != nil {
		t.Fatal(err)
	}
	m := counted(net)
	got := collect(t, sim, net, 1)
	const sent = 2000
	for i := 0; i < sent; i++ {
		if err := net.Unicast(0, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	frac := float64(len(*got)) / sent
	if frac < 0.4 || frac > 0.6 {
		t.Errorf("with 50%% drop, delivered fraction = %v", frac)
	}
	if dropped := m.Count(1, obs.EvDrop); dropped == 0 || dropped+uint64(len(*got)) != sent {
		t.Errorf("counts inconsistent: dropped=%d delivered=%d", dropped, len(*got))
	}
}

func TestDuplicateInjection(t *testing.T) {
	sim, net := newNet(t, Config{Nodes: 2})
	if err := net.SetFaults(0, 0.5, 0); err != nil {
		t.Fatal(err)
	}
	got := collect(t, sim, net, 1)
	const total = 1000
	for i := 0; i < total; i++ {
		if err := net.Unicast(0, 1, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(*got) <= total {
		t.Errorf("with 50%% dup, delivered %d <= %d", len(*got), total)
	}
	if net.Stats().Duplicated == 0 {
		t.Error("no duplicates recorded in stats")
	}
}

func TestJitterCanReorder(t *testing.T) {
	sim, net := newNet(t, Config{Nodes: 2})
	if err := net.SetFaults(0, 0, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	got := collect(t, sim, net, 1)
	for i := 0; i < 50; i++ {
		if err := net.Unicast(0, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	reordered := false
	for i := 1; i < len(*got); i++ {
		if (*got)[i].b[0] < (*got)[i-1].b[0] {
			reordered = true
		}
	}
	if !reordered {
		t.Error("jitter produced no reordering across 50 packets")
	}
}

func TestBlockUnblock(t *testing.T) {
	sim, net := newNet(t, Config{Nodes: 2})
	got := collect(t, sim, net, 1)
	net.Block(0, 1)
	if err := net.Unicast(0, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 0 {
		t.Fatal("blocked packet was delivered")
	}
	net.Unblock(0, 1)
	if err := net.Unicast(0, 1, nil); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 {
		t.Fatal("unblocked packet was not delivered")
	}
}

func TestInjectBypassesSender(t *testing.T) {
	sim, net := newNet(t, Config{Nodes: 2, SendCPU: time.Hour})
	got := collect(t, sim, net, 1)
	if err := net.InjectForged(0, 1, []byte("forged")); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(*got) != 1 || string((*got)[0].b) != "forged" {
		t.Fatal("injected packet not delivered")
	}
	if sim.Now() >= time.Hour {
		t.Error("inject paid sender-side costs")
	}
}

func TestPayloadIsolation(t *testing.T) {
	sim, net := newNet(t, Config{Nodes: 2})
	var seen []byte
	if err := net.Bind(1, func(_ ids.ProcID, b []byte) { seen = bytes.Clone(b) }); err != nil {
		t.Fatal(err)
	}
	payload := []byte("abc")
	if err := net.Unicast(0, 1, payload); err != nil {
		t.Fatal(err)
	}
	payload[0] = 'X' // sender mutates after send
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if string(seen) != "abc" {
		t.Errorf("receiver saw %q, want \"abc\" (payload must be copied)", seen)
	}
}

func TestUnboundNodeDropsSilently(t *testing.T) {
	sim, net := newNet(t, Config{Nodes: 2})
	if err := net.Unicast(0, 1, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestStatsCounters(t *testing.T) {
	sim, net := newNet(t, Config{Nodes: 3, BitsPerSecond: 10e6, FrameOverhead: 10})
	for i := 0; i < 3; i++ {
		collect(t, sim, net, ids.ProcID(i))
	}
	if err := net.Unicast(0, 1, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := net.Multicast(0, make([]byte, 100)); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	st := net.Stats()
	if st.Unicasts != 1 || st.Multicasts != 1 {
		t.Errorf("counters: %+v", st)
	}
	if st.Delivered != 4 { // 1 unicast + 3 multicast receivers
		t.Errorf("delivered = %d, want 4", st.Delivered)
	}
	if st.WireBytes != 220 { // two transmissions of 100+10 bytes
		t.Errorf("wire bytes = %d, want 220", st.WireBytes)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	cfg := Config{Nodes: 4, PropDelay: time.Millisecond}
	sim, net := newNet(t, cfg)
	logs := make([]*[]rcvd, 4)
	for p := 0; p < 4; p++ {
		logs[p] = collect(t, sim, net, ids.ProcID(p))
	}
	net.Partition([]ids.ProcID{0, 1}, []ids.ProcID{2, 3})
	if err := net.Multicast(0, []byte("cut")); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	// Same side hears it, far side does not.
	if len(*logs[0]) != 1 || len(*logs[1]) != 1 {
		t.Fatalf("same-side deliveries: %d, %d (want 1, 1)", len(*logs[0]), len(*logs[1]))
	}
	if len(*logs[2]) != 0 || len(*logs[3]) != 0 {
		t.Fatalf("cross-cut deliveries: %d, %d (want 0, 0)", len(*logs[2]), len(*logs[3]))
	}
	net.Heal()
	if err := net.Multicast(0, []byte("joined")); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < 4; p++ {
		want := 2
		if p >= 2 {
			want = 1
		}
		if len(*logs[p]) != want {
			t.Errorf("node %d delivered %d, want %d", p, len(*logs[p]), want)
		}
	}
}

func TestPartitionLeavesThirdPartyAlone(t *testing.T) {
	cfg := Config{Nodes: 3, PropDelay: time.Millisecond}
	sim, net := newNet(t, cfg)
	logs := make([]*[]rcvd, 3)
	for p := 0; p < 3; p++ {
		logs[p] = collect(t, sim, net, ids.ProcID(p))
	}
	net.Partition([]ids.ProcID{0}, []ids.ProcID{1})
	if err := net.Multicast(2, []byte("hi")); err != nil {
		t.Fatal(err)
	}
	if err := net.Unicast(0, 2, []byte("p2p")); err != nil {
		t.Fatal(err)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(*logs[0]) != 1 || len(*logs[1]) != 1 {
		t.Errorf("outsider multicast blocked: %d, %d", len(*logs[0]), len(*logs[1]))
	}
	if len(*logs[2]) != 2 { // own loopback + p0's unicast
		t.Errorf("node 2 delivered %d, want 2", len(*logs[2]))
	}
}

func TestSetFaults(t *testing.T) {
	cfg := Config{Nodes: 2, PropDelay: time.Millisecond}
	sim, net := newNet(t, cfg)
	log := collect(t, sim, net, 1)
	if err := net.SetFaults(0.5, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 200; i++ {
		if err := net.Unicast(0, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	burst := len(*log)
	if burst == 200 || burst == 0 {
		t.Fatalf("drop burst ineffective: %d of 200 delivered", burst)
	}
	// Clearing the faults restores exact delivery.
	if err := net.SetFaults(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := net.Unicast(0, 1, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(*log)-burst != 50 {
		t.Errorf("after clearing faults %d of 50 delivered", len(*log)-burst)
	}
	if err := net.SetFaults(1.5, 0, 0); err == nil {
		t.Error("SetFaults accepted drop probability 1.5")
	}
	if err := net.SetFaults(0, 0, -time.Second); err == nil {
		t.Error("SetFaults accepted negative jitter")
	}
}

// TestPartitionBlockedSendsConsumeNoRNG pins scheduleDelivery's draw
// ordering contract: the blocked/crashed check precedes every fault
// draw, so traffic into a partition consumes no randomness — the fate
// of every delivery on the healthy links is byte-identical whether or
// not blocked traffic was interleaved with it. (If a blocked delivery
// ever drew from the RNG, the two runs below would diverge.)
func TestPartitionBlockedSendsConsumeNoRNG(t *testing.T) {
	run := func(withBlocked bool) ([]rcvd, int64) {
		cfg := Config{Nodes: 3, PropDelay: time.Millisecond}
		sim, net := newNet(t, cfg)
		log := collect(t, sim, net, 2)
		_ = collect(t, sim, net, 1)
		net.Partition([]ids.ProcID{1}, []ids.ProcID{0, 2})
		if err := net.SetFaults(0.4, 0.2, 0); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 80; i++ {
			if withBlocked {
				if err := net.Unicast(0, 1, []byte{0xbb, byte(i)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := net.Unicast(0, 2, []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := sim.Run(0); err != nil {
			t.Fatal(err)
		}
		// The next draw's value pins the RNG stream position exactly.
		return *log, sim.Rand().Int63()
	}
	with, rngWith := run(true)
	without, rngWithout := run(false)
	if len(with) == 0 || len(with) == 80 {
		t.Fatalf("fault draws ineffective: %d of 80 delivered", len(with))
	}
	if !reflect.DeepEqual(with, without) {
		t.Errorf("blocked traffic perturbed the healthy link: %d vs %d deliveries", len(with), len(without))
	}
	if rngWith != rngWithout {
		t.Errorf("blocked traffic consumed RNG: stream positions diverge (%d vs %d)", rngWith, rngWithout)
	}
}
