// Package cpu models the host cores of §V-A: commit-order instruction
// streams over an x86-TSO store buffer, bounded memory-level parallelism
// for loads, and — the heart of the paper — the per-consistency-model
// issuing process for PIM operations (Fig. 6a-d): full stall with ACK
// (atomic), store-buffer FIFO with ACK (store), non-FIFO per-scope gating
// (scope), and fire-at-commit with scope-fences (scope-relaxed).
package cpu

import (
	"bulkpim/internal/mem"
	"bulkpim/internal/sim"
)

// InstrKind enumerates the operations a workload thread can issue.
type InstrKind uint8

const (
	// InstrCompute spins the core for Cycles.
	InstrCompute InstrKind = iota
	// InstrLoad reads Size bytes at Addr (blocking).
	InstrLoad
	// InstrLoadBurst reads the word ranges in Burst with MLP overlapping.
	InstrLoadBurst
	// InstrStore writes Data at Addr through the store buffer.
	InstrStore
	// InstrPIMOp issues a bulk-bitwise PIM operation on Scope.
	InstrPIMOp
	// InstrFlush issues cache-line flushes for Lines and waits for all
	// (the SW-Flush baseline's software coherence).
	InstrFlush
	// InstrFenceFull is a MemFence: drains the store buffer, outstanding
	// loads, flushes, and (where the model tracks them) PIM ACKs.
	InstrFenceFull
	// InstrFencePIM is the dedicated PIM fence of [21]: orders PIM ops
	// across scopes (scope / scope-relaxed models).
	InstrFencePIM
	// InstrScopeFence orders operations of one scope (scope-relaxed).
	InstrScopeFence
	// InstrBarrier synchronizes threads (runtime synchronization, not a
	// memory operation).
	InstrBarrier
)

// BurstRange is a contiguous word-granularity read.
type BurstRange struct {
	Start mem.Addr
	Bytes int
}

// Instr is one instruction delivered by a Thread.
type Instr struct {
	Kind   InstrKind
	Cycles sim.Tick // InstrCompute

	Addr mem.Addr // InstrLoad / InstrStore
	Size int      // bytes for InstrLoad (default 8)
	Data []byte   // InstrStore payload

	Burst []BurstRange // InstrLoadBurst

	Lines []mem.LineAddr // InstrFlush

	Scope mem.ScopeID     // InstrPIMOp / InstrScopeFence
	Prog  *mem.PIMProgram // InstrPIMOp

	Barrier *Barrier // InstrBarrier

	// OnData, when set, receives the bytes of each completed line read
	// (functional verification against the workload oracle).
	OnData func(line mem.LineAddr, data []byte)

	// Label annotates the op in happens-before traces.
	Label string
}

// Thread produces the instruction stream of one hardware thread. Next is
// called once per issued instruction; returning ok=false retires the
// thread.
type Thread interface {
	Next() (Instr, bool)
}

// FuncThread adapts a closure to Thread.
type FuncThread func() (Instr, bool)

// Next implements Thread.
func (f FuncThread) Next() (Instr, bool) { return f() }

// SliceThread replays a fixed instruction sequence (litmus tests).
type SliceThread struct {
	Instrs []Instr
	pos    int
}

// Next implements Thread.
func (s *SliceThread) Next() (Instr, bool) {
	if s.pos >= len(s.Instrs) {
		return Instr{}, false
	}
	i := s.Instrs[s.pos]
	s.pos++
	return i, true
}

// Barrier is a reusable (cyclic) thread barrier. It is runtime
// synchronization — the simulated equivalent of pthread_barrier — not a
// memory operation.
type Barrier struct {
	n       int
	arrived int
	resume  []func()
}

// NewBarrier builds a barrier for n participants.
func NewBarrier(n int) *Barrier {
	if n <= 0 {
		panic("cpu: barrier needs participants")
	}
	return &Barrier{n: n}
}

// Arrive registers a participant; when the last one arrives every resume
// callback runs and the barrier resets for reuse.
func (b *Barrier) Arrive(resume func()) {
	b.arrived++
	b.resume = append(b.resume, resume)
	if b.arrived == b.n {
		callbacks := b.resume
		b.arrived = 0
		b.resume = nil
		for _, fn := range callbacks {
			fn()
		}
	}
}
