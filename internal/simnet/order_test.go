package simnet

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"
	"time"

	"repro/internal/des"
	"repro/internal/ids"
	"repro/internal/obs"
)

const orderNodes = 6

// orderConfigs are the four network shapes the pinned scripts run on: the
// paper's Ethernet, a fast NIC, one whose handlers run inline (no receive
// CPU) and one whose multicast reaches every receiver at the instant the
// transmission ends (no propagation delay).
func orderConfigs() []struct {
	name string
	cfg  Config
} {
	eth := Ethernet10Mbit(orderNodes)
	fast := Config{
		Nodes:         orderNodes,
		PropDelay:     50 * time.Microsecond,
		BitsPerSecond: 100e6,
		FrameOverhead: 64,
		RecvCPU:       20 * time.Microsecond,
		SendCPU:       10 * time.Microsecond,
	}
	inline := eth
	inline.RecvCPU = 0
	noProp := eth
	noProp.PropDelay = 0
	return []struct {
		name string
		cfg  Config
	}{{"ethernet", eth}, {"fast-nic", fast}, {"recv-cpu-0", inline}, {"prop-delay-0", noProp}}
}

// orderScript drives one network through a seeded random script and folds
// (Now, dst, src, len, first byte) of every handler call into an FNV-64
// digest, so the digest changes if any delivery moves in time or trades
// places with another. The script draws from its own stream; the network
// draws its faults from the simulator's.
func orderScript(t *testing.T, cfg Config, seed int64) uint64 {
	t.Helper()
	sim := des.New(seed)
	net, err := New(sim, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	digest := fnv.New64a()
	fold := func(vs ...uint64) {
		var word [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(word[:], v)
			digest.Write(word[:])
		}
	}
	node := func() ids.ProcID { return ids.ProcID(rng.Intn(orderNodes)) }
	sent := 0
	// Most sizes cost a whole multiple of 100 µs on the Ethernet and of
	// 10 µs on the fast NIC, so transmissions end on the same grid as the
	// CPU charges, the propagation delay and the script's own events, and
	// many events share an instant. payload's first byte carries the hop
	// count in its top two bits, so a reply chain dies out after two hops.
	sizes := []int{61, 186, 311, 436}
	payload := func(hops int) []byte {
		sent++
		size := sizes[rng.Intn(len(sizes))]
		if rng.Intn(5) == 0 {
			size = 1 + rng.Intn(300)
		}
		b := make([]byte, size)
		b[0] = byte(hops<<6 | sent&63)
		return b
	}
	send := func(src ids.ProcID, hops int) {
		switch rng.Intn(3) {
		case 0:
			_ = net.Unicast(src, node(), payload(hops))
		case 1:
			_ = net.Multicast(src, payload(hops))
		default:
			_ = net.InjectForged(src, node(), payload(hops))
		}
	}
	for p := 0; p < orderNodes; p++ {
		dst := ids.ProcID(p)
		if err := net.Bind(dst, func(src ids.ProcID, b []byte) {
			first := uint64(1 << 8) // an empty delivery
			if len(b) > 0 {
				first = uint64(b[0])
			}
			fold(uint64(sim.Now()), uint64(dst), uint64(src), uint64(len(b)), first)
			hops := 3
			if len(b) > 0 {
				hops = int(b[0] >> 6)
			}
			if hops >= 2 {
				return
			}
			switch rng.Intn(4) {
			case 0: // reply from inside the handler
				send(dst, hops+1)
			case 1: // reply one propagation delay later, as its own event
				sim.Schedule(sim.Now()+cfg.PropDelay, func() { send(dst, hops+1) })
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	crashes := 0
	for step := 0; step < 1000; step++ {
		switch k := rng.Intn(100); {
		case k < 25:
			_ = net.Unicast(node(), node(), payload(0))
		case k < 50:
			_ = net.Multicast(node(), payload(0))
		case k < 55:
			_ = net.InjectForged(node(), node(), payload(0))
		case k < 58:
			// Crash strikes only a node with no frame still in its send CPU,
			// so the digest never depends on what happens to such frames
			// (TestCrashedSenderLeavesTheWire pins that).
			if p := node(); crashes < 2 && net.cpuFree[p] <= sim.Now() {
				net.Crash(p)
				crashes++
			}
		case k < 64:
			probs := []float64{0, 0, 0.1, 0.3}
			jitter := []time.Duration{0, 0, 0, 200 * time.Microsecond}
			if err := net.SetFaults(probs[rng.Intn(4)], probs[rng.Intn(4)], jitter[rng.Intn(4)]); err != nil {
				t.Fatal(err)
			}
		case k < 69:
			probs := []float64{0, 0, 0.2}
			extra := []time.Duration{0, 37 * time.Microsecond, 100 * time.Microsecond}
			if err := net.SetLinkFaults(node(), node(), probs[rng.Intn(3)], probs[rng.Intn(3)], extra[rng.Intn(3)]); err != nil {
				t.Fatal(err)
			}
		case k < 74:
			if err := net.SetSlowNode(node(), 1+rng.Intn(3)); err != nil {
				t.Fatal(err)
			}
		case k < 78:
			cut := 1 + rng.Intn(orderNodes-1)
			var a, b []ids.ProcID
			for p := 0; p < orderNodes; p++ {
				if p < cut {
					a = append(a, ids.ProcID(p))
				} else {
					b = append(b, ids.ProcID(p))
				}
			}
			net.Partition(a, b)
		case k < 82:
			net.Heal()
		case k < 90:
			// A send scheduled as its own event, so it may share an instant
			// with the network's.
			src, at := node(), sim.Now()+time.Duration(rng.Intn(40))*50*time.Microsecond
			sim.Schedule(at, func() { send(src, 0) })
		}
		gaps := []time.Duration{0, 0, 50 * time.Microsecond, 400 * time.Microsecond, 3 * time.Millisecond}
		gap := gaps[rng.Intn(len(gaps))]
		if rng.Intn(8) == 0 {
			gap += time.Duration(1+rng.Intn(9)) * time.Microsecond // off the grid
		}
		sim.RunUntil(sim.Now() + gap)
	}
	if err := sim.Run(0); err != nil {
		t.Fatal(err)
	}
	fold(uint64(sim.Now()))
	return digest.Sum64()
}

// TestDeliveryOrderPinned: the network's delivery order — which handler
// runs when, on which bytes, and in what order against every other
// handler at the same instant — is a function of the seed alone, and it
// is pinned. The digests were computed before same-instant deliveries
// were coalesced into one simulator event; that change must not move a
// single delivery.
func TestDeliveryOrderPinned(t *testing.T) {
	want := map[string][4]uint64{
		"ethernet":     {0x1590d63d8d6c6beb, 0xcd9a64678db2d481, 0x03c281482f2a2208, 0xf0a911828cdab201},
		"fast-nic":     {0x61ea3c427f164c15, 0x6c90da586abef769, 0x15123c9102315697, 0xbe5e4053328ee0c3},
		"recv-cpu-0":   {0x18cbc20a796c3a64, 0x0f3589f5389c41cf, 0x3f2ed52fcfee8db6, 0x11f4501d05448462},
		"prop-delay-0": {0xa73aab3005770045, 0x654dbbcbb6ae85cc, 0x05ceb7f81a2ab810, 0x60163fdf1c55a87b},
	}
	for _, c := range orderConfigs() {
		for i, seed := range []int64{1, 2, 3, 4} {
			if got := orderScript(t, c.cfg, seed); got != want[c.name][i] {
				t.Errorf("%s seed %d: delivery digest %#x, want %#x", c.name, seed, got, want[c.name][i])
			}
		}
	}
}

// TestMulticastEventCount: a multicast to idle receivers costs the
// simulator one event per distinct instant, not two per receiver — send
// CPU done, transmission done, the sender's loopback, everyone else's
// arrival, and the two receive completions. A unicast is its four legs.
func TestMulticastEventCount(t *testing.T) {
	const nodes = 10
	sim, net := newNet(t, Ethernet10Mbit(nodes))
	delivered := 0
	for p := 0; p < nodes; p++ {
		if err := net.Bind(ids.ProcID(p), func(ids.ProcID, []byte) { delivered++ }); err != nil {
			t.Fatal(err)
		}
	}
	events := func(send func()) uint64 {
		start := sim.Executed()
		send()
		drain(sim)
		return sim.Executed() - start
	}
	if got := events(func() { _ = net.Multicast(3, make([]byte, 200)) }); got != 6 {
		t.Errorf("a multicast to %d idle receivers executed %d events, want 6", nodes, got)
	}
	if delivered != nodes {
		t.Errorf("the multicast reached %d receivers, want %d", delivered, nodes)
	}
	if got := events(func() { _ = net.Unicast(3, 4, make([]byte, 200)) }); got != 4 {
		t.Errorf("a unicast executed %d events, want 4", got)
	}
}

// TestCrashedSenderLeavesTheWire: a frame still in a node's send CPU when
// the node crashes never reaches the wire. Node 1's five frames would hold
// the medium for 9.2 ms and push node 2's frame back by as much.
func TestCrashedSenderLeavesTheWire(t *testing.T) {
	sim, net := newNet(t, Ethernet10Mbit(3))
	m := counted(net)
	got := collect(t, sim, net, 0)
	for i := 0; i < 5; i++ {
		if err := net.Unicast(1, 0, make([]byte, 2240)); err != nil {
			t.Fatal(err)
		}
	}
	sim.Schedule(100*time.Microsecond, func() { net.Crash(1) })
	sim.Schedule(500*time.Microsecond, func() { _ = net.Unicast(2, 0, make([]byte, 100)) })
	drain(sim)
	if len(*got) != 1 || (*got)[0].src != 2 {
		t.Fatalf("deliveries %+v, want node 2's frame alone", *got)
	}
	if at := (*got)[0].at; at != 1681200*time.Nanosecond {
		t.Errorf("node 2's frame handled at %v, want 1.6812ms", at)
	}
	st := net.Stats()
	if st.WireBytes != 164 {
		t.Errorf("the wire carried %d B, want 164 (node 2's frame alone)", st.WireBytes)
	}
	if dropped := total(m, obs.EvDrop); st.Unicasts != 6 || dropped != 5 {
		t.Errorf("%d unicasts, %d dropped; want 6 and 5", st.Unicasts, dropped)
	}
}

// TestBlockIsPerLink: a link is blocked or not, so blocking it twice and
// unblocking it once opens it, and other links keep their own state.
func TestBlockIsPerLink(t *testing.T) {
	sim, net := newNet(t, Config{Nodes: 3})
	got := collect(t, sim, net, 1)
	sendBoth := func() {
		_ = net.Unicast(0, 1, []byte{0})
		_ = net.Unicast(2, 1, []byte{2})
		drain(sim)
	}
	net.Block(0, 1)
	net.Block(0, 1)
	net.Block(2, 1)
	net.Unblock(0, 1)
	sendBoth()
	if len(*got) != 1 || (*got)[0].src != 0 {
		t.Fatalf("deliveries %+v, want 0's frame alone (2→1 still blocked)", *got)
	}
	net.Unblock(2, 1)
	net.Unblock(2, 1)
	sendBoth()
	if len(*got) != 3 {
		t.Fatalf("%d deliveries after unblocking every link, want 3", len(*got))
	}
	net.Block(0, 9) // out of range: ignored
	if net.Crashed(9) {
		t.Fatal("an out-of-range node reads as crashed")
	}
	sendBoth()
	if len(*got) != 5 {
		t.Fatalf("an out-of-range block cut a real link: %d deliveries, want 5", len(*got))
	}
}
