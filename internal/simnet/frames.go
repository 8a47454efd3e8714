package simnet

import (
	"fmt"
	"hash/crc32"
	"math/bits"

	"repro/internal/contract"
)

// wireFrame is the network's one copy of a transmission's bytes: the
// snapshot of the sender's payload, handed as it is to every receiver
// and every duplicate. It is counted: the transmission holds one
// reference until its fan-out is done, each scheduled delivery one until
// its handler returns, and the replay tap one for as long as it keeps
// the frame. The last reference gives the buffer back to the network's
// free list, so a frame in steady state costs no allocation.
type wireFrame struct {
	b    []byte
	refs int
	// sum is b's checksum when the frame was made; it is kept and checked
	// only in contract builds (package contract).
	sum uint32
}

// Frame buffers come in power-of-two size classes, so that acks and
// kilobyte data batches do not take each other's buffers.
// A frame above the largest class is made for itself and left to the
// collector.
const (
	minFrameClass = 6  // 64 B
	maxFrameClass = 16 // 64 KiB
)

// framePool is a network's free frames, one stack per size class.
type framePool struct {
	free [maxFrameClass + 1][]*wireFrame
}

// frameClass returns the class of a buffer of capacity n: the smallest c
// with 1<<c >= n, at least minFrameClass.
func frameClass(n int) int {
	if n <= 1<<minFrameClass {
		return minFrameClass
	}
	return bits.Len(uint(n - 1))
}

// get returns a frame with an empty buffer of capacity at least n and
// one reference.
func (p *framePool) get(n int) *wireFrame {
	c := frameClass(n)
	if c > maxFrameClass {
		return &wireFrame{b: make([]byte, 0, n), refs: 1}
	}
	var f *wireFrame
	if k := len(p.free[c]) - 1; k >= 0 {
		f = p.free[c][k]
		p.free[c][k] = nil
		p.free[c] = p.free[c][:k]
	} else {
		f = &wireFrame{b: make([]byte, 0, 1<<c)}
	}
	f.b, f.refs = f.b[:0], 1
	return f
}

// snapshot copies payload into a new frame. In a contract build it
// also records the frame's checksum.
func (n *Network) snapshot(payload []byte) *wireFrame {
	f := n.frames.get(len(payload))
	f.b = append(f.b, payload...)
	if contract.Enabled {
		f.sum = crc32.ChecksumIEEE(f.b)
	}
	return f
}

// ref takes one more reference to f.
func (f *wireFrame) ref() { f.refs++ }

// unref drops one reference to f (nil is no frame: a delivery that holds
// a private copy). The last one gives the buffer back. In a contract
// build the frame is first checked against its checksum — a receiver
// that wrote to it broke the rule that delivered bytes are read-only —
// and poisoned, so that a layer that kept a view of it without copying
// reads PoisonByte instead of its message.
func (n *Network) unref(f *wireFrame) {
	if f == nil {
		return
	}
	if f.refs--; f.refs > 0 {
		return
	}
	if contract.Enabled {
		if sum := crc32.ChecksumIEEE(f.b); sum != f.sum {
			panic(fmt.Sprintf("simnet: a %d-byte frame was written to while delivered", len(f.b)))
		}
		contract.Poison(f.b)
	}
	c := frameClass(cap(f.b))
	if c > maxFrameClass || cap(f.b) != 1<<c {
		return
	}
	n.frames.free[c] = append(n.frames.free[c], f)
}
