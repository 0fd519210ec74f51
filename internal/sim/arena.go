package sim

import "math/bits"

// arena owns the cycle core's recycled memory: the packet freelist and
// spare calendar backing arrays, one pool per calendar element type. Every
// steady-state allocation site of the hot loop drains from here instead of
// the heap — delivered packets and outgrown calendar lists return their
// memory, so once the network reaches its working set a Step performs no
// allocations at all (the contract BenchmarkSimulatorCycles and
// TestStepZeroAlloc pin).
type arena struct {
	packets  []*Packet
	flits    blockPool[flitEv]
	credits  blockPool[creditEv]
	delivers blockPool[deliverEv]
}

// allocPacket takes a packet from the freelist or allocates one.
func (a *arena) allocPacket() *Packet {
	if len(a.packets) > 0 {
		p := a.packets[len(a.packets)-1]
		a.packets = a.packets[:len(a.packets)-1]
		p.reset()
		return p
	}
	return &Packet{Inter: -1}
}

// freePacket returns a delivered packet to the freelist.
func (a *arena) freePacket(p *Packet) {
	a.packets = append(a.packets, p)
}

// minBlockClass is the smallest block handed out: 1<<3 = 8 elements.
const minBlockClass = 3

// blockPool recycles the backing arrays of one calendar list type.
// free[c] holds spare blocks of capacity exactly 1<<c. Blocks are always
// power-of-two sized, so an outgrown list's array is reusable verbatim by
// the next list reaching that size.
type blockPool[T any] struct {
	free [28][][]T
}

// grow returns a block with room beyond len(old), carrying over old's
// contents; old's backing array (always pow-2 capacity) goes back on the
// free list for another calendar slot to reuse.
func (bp *blockPool[T]) grow(old []T) []T {
	class := minBlockClass
	if cap(old) > 0 {
		class = bits.Len(uint(cap(old))) // cap is 1<<(class-1): next class up
		if class < minBlockClass {
			class = minBlockClass
		}
	}
	var grown []T
	if free := bp.free[class]; len(free) > 0 {
		grown = free[len(free)-1][:0]
		bp.free[class] = free[:len(free)-1]
	} else {
		grown = make([]T, 0, 1<<uint(class))
	}
	grown = append(grown, old...)
	if cap(old) >= 1<<minBlockClass {
		oc := bits.Len(uint(cap(old))) - 1
		bp.free[oc] = append(bp.free[oc], old[:0])
	}
	return grown
}
