package sim

import "math/bits"

// arena owns the cycle core's recycled memory: the packet slab with its
// freelist, and spare calendar backing arrays, one pool per calendar
// element type. Every steady-state allocation site of the hot loop drains
// from here instead of the heap — delivered packets and drained calendar
// lists return their memory, so once the network reaches its working set
// a Step performs no allocations at all (the contract
// BenchmarkSimulatorCycles and TestStepZeroAlloc pin).
//
// Packets live in fixed-size chunks and are addressed by an int32 handle,
// 0 meaning none: flits, events, VC owners and sources carry the handle,
// so none of their slabs holds a pointer and the collector never scans
// them. A chunk is never moved or freed, so the *Packet that Route, Hooks
// and the audits are handed stays valid for the packet's whole life.
type arena struct {
	chunks []*pktChunk
	free   []int32 // handles of delivered packets, reused last-in first-out
	next   int32   // the next never-issued handle; handle 0 stays unused
	// TestHotStateIsPointerFree holds flitEv, creditEv and deliverEv
	// pointer-free, so the pools' blocks are noscan too.
	flits    blockPool[flitEv]
	credits  blockPool[creditEv]
	delivers blockPool[deliverEv]
}

// Packets per chunk: 256 × 64 B = 16 kB, small enough that a 16-terminal
// network does not notice it and few enough chunks that a restore of
// thousands of live packets costs tens of allocations.
const (
	chunkShift = 8
	chunkMask  = 1<<chunkShift - 1
)

// pktChunk is one block of the packet slab.
type pktChunk [1 << chunkShift]Packet

// pkt returns the packet of handle h, which must be non-zero.
func (a *arena) pkt(h int32) *Packet { return &a.chunks[h>>chunkShift][h&chunkMask] }

// ptr returns the packet of handle h, or nil for handle 0.
func (a *arena) ptr(h int32) *Packet {
	if h == 0 {
		return nil
	}
	return a.pkt(h)
}

// allocPacket takes a handle from the freelist, or issues a new one, and
// returns it with its packet cleared.
func (a *arena) allocPacket() int32 {
	var h int32
	if k := len(a.free); k > 0 {
		h = a.free[k-1]
		a.free = a.free[:k-1]
	} else {
		h = max(a.next, 1)
		a.next = h + 1
		if int(h>>chunkShift) == len(a.chunks) {
			a.chunks = append(a.chunks, new(pktChunk))
		}
	}
	a.pkt(h).reset()
	return h
}

// freePacket returns a delivered packet's handle to the freelist.
func (a *arena) freePacket(h int32) {
	a.free = append(a.free, h)
}

// minBlockClass is the smallest block handed out: 1<<3 = 8 elements.
const minBlockClass = 3

// blockPool recycles the backing arrays of one calendar list type.
// free[c] holds spare blocks of capacity exactly 1<<c. Blocks are always
// power-of-two sized, so an outgrown or drained list's array is reusable
// verbatim by the next list reaching that size.
type blockPool[T any] struct {
	free [28][][]T
}

// grow returns a block with room beyond len(old), carrying over old's
// contents; old's backing array (always pow-2 capacity) goes back on the
// free list for another calendar slot to reuse. A list without a block
// gets one of the smallest class.
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
	bp.put(old)
	return grown
}

// put returns a list's block to the free list of its class; a list
// without one is ignored.
func (bp *blockPool[T]) put(s []T) {
	if cap(s) >= 1<<minBlockClass {
		c := bits.Len(uint(cap(s))) - 1
		bp.free[c] = append(bp.free[c], s[:0])
	}
}
