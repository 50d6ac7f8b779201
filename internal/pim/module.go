package pim

import (
	"bulkpim/internal/mem"
	"bulkpim/internal/sim"
	"bulkpim/internal/stats"
	"bulkpim/internal/trace"
)

// Module is the timed model of the PIM memory card. PIM ops forwarded by
// the memory controller enter a bounded buffer; the module starts the
// oldest buffered op of every idle scope, so different scopes execute fully
// in parallel while ops to one scope serialize in arrival order. The
// bounded buffer is the source of the back-pressure the paper studies
// (Fig. 10a, Fig. 11a).
type Module struct {
	k *sim.Kernel

	// BufferSize bounds the op buffer; <= 0 means unbounded (Fig. 11a).
	BufferSize int
	// CyclesPerMicroOp converts a program's micro-op count to CPU cycles.
	CyclesPerMicroOp sim.Tick
	// FixedOpLatency is a per-op floor (decode, array setup).
	FixedOpLatency sim.Tick
	// ZeroLatency forces zero execution time (Fig. 11b).
	ZeroLatency bool
	// Functional executes programs on Backing; otherwise only timing.
	Functional bool
	Backing    *mem.Backing

	// OnComplete fires when an op finishes executing (the memory
	// controller clears its per-scope dependences with it).
	OnComplete func(req *mem.Request)
	// OnSpace fires when buffer space frees.
	OnSpace func()

	// Tracer, when enabled for CatPIM, logs op start and completion.
	Tracer *trace.Tracer

	// scopes holds per-scope state at index ScopeID+1 (slot 0 is
	// NoScope), grown on first use; buffered, executing and activeScopes
	// are its running totals, so arrival statistics and start decisions
	// are O(1) instead of walks over the buffer.
	scopes       []scopeState
	buffered     int
	executing    int
	activeScopes int // scopes with at least one buffered op
	// freed is the scope whose op just completed, while hasFreed says
	// its next op has not been started yet: completion callbacks may
	// enqueue before complete's own start, and the freed scope's head is
	// older than any such arrival, so it starts first.
	freed    mem.ScopeID
	hasFreed bool
	// completeFn is the hoisted completion callback (avoids per-op
	// allocation).
	completeFn func(any)

	// Stats (names match the figures they feed).
	BufLenOnArrival   stats.Mean // Fig. 10a
	UniqueScopesOnArr stats.Mean // Fig. 10b
	ExecCycles        stats.Mean
	OpsExecuted       stats.Counter
	PeakBuffer        int
}

// NewModule builds a module bound to kernel k.
func NewModule(k *sim.Kernel, backing *mem.Backing) *Module {
	m := &Module{
		k:                k,
		Backing:          backing,
		BufferSize:       128,
		CyclesPerMicroOp: 360, // ~100ns per array micro-op at 3.6GHz
		FixedOpLatency:   720,
	}
	m.completeFn = func(x any) { m.complete(x.(*mem.Request)) }
	return m
}

// scopeState is one scope's share of the module: the op occupying its
// memory array, if any, and its buffered ops in arrival order.
type scopeState struct {
	running *mem.Request
	queue   opQueue
}

// opQueue is a FIFO of buffered ops that reuses its backing array.
type opQueue struct {
	ops  []*mem.Request
	head int
}

func (q *opQueue) len() int { return len(q.ops) - q.head }

func (q *opQueue) push(r *mem.Request) {
	if q.head > 0 && len(q.ops) == cap(q.ops) {
		// Full with a consumed prefix: slide down instead of growing.
		n := copy(q.ops, q.ops[q.head:])
		clear(q.ops[n:])
		q.ops, q.head = q.ops[:n], 0
	}
	q.ops = append(q.ops, r)
}

func (q *opQueue) pop() *mem.Request {
	r := q.ops[q.head]
	q.ops[q.head] = nil
	q.head++
	if q.head == len(q.ops) {
		q.ops, q.head = q.ops[:0], 0
	}
	return r
}

// scope returns the state of s, growing the table on first use.
func (m *Module) scope(s mem.ScopeID) *scopeState {
	i := int(s) + 1
	if i >= len(m.scopes) {
		m.scopes = append(m.scopes, make([]scopeState, i+1-len(m.scopes))...)
	}
	return &m.scopes[i]
}

// BufferLen returns the number of buffered (not yet started) ops.
func (m *Module) BufferLen() int { return m.buffered }

// InFlight returns buffered plus executing ops.
func (m *Module) InFlight() int { return m.buffered + m.executing }

// TryEnqueue accepts a PIM op into the buffer, or reports false when the
// buffer is full. Arrival statistics are sampled before insertion, matching
// the paper's "on PIM op arrival" measurements.
func (m *Module) TryEnqueue(req *mem.Request) bool {
	if m.BufferSize > 0 && m.buffered >= m.BufferSize {
		return false
	}
	m.BufLenOnArrival.Observe(float64(m.buffered))
	m.UniqueScopesOnArr.Observe(float64(m.activeScopes))
	st := m.scope(req.Scope)
	if st.queue.len() == 0 {
		m.activeScopes++
	}
	st.queue.push(req)
	m.buffered++
	if m.buffered > m.PeakBuffer {
		m.PeakBuffer = m.buffered
	}
	m.tryStart(req.Scope)
	return true
}

// tryStart launches the oldest buffered op of every idle scope. Every
// other buffered op waits on a busy scope, so the only candidates are a
// scope freed by a completion and s, the scope that just arrived or
// completed; the freed scope's op is the older and starts first. The
// trace reports the buffer length the pass started from.
func (m *Module) tryStart(s mem.ScopeID) {
	n := m.buffered
	started := false
	if m.hasFreed {
		m.hasFreed = false
		started = m.startHead(m.freed, n)
	}
	if m.startHead(s, n) {
		started = true
	}
	if started && m.OnSpace != nil {
		m.OnSpace()
	}
}

// startHead starts the oldest buffered op of scope s if s is idle.
// buffered is the buffer length the trace reports.
func (m *Module) startHead(s mem.ScopeID, buffered int) bool {
	st := m.scope(s)
	if st.running != nil || st.queue.len() == 0 {
		return false
	}
	req := st.queue.pop()
	if st.queue.len() == 0 {
		m.activeScopes--
	}
	st.running = req
	m.buffered--
	m.executing++
	if m.Tracer.Enabled(trace.CatPIM) {
		name := ""
		if req.PIM != nil && req.PIM.Program != nil {
			name = req.PIM.Program.Name
		}
		m.Tracer.Emit(trace.CatPIM, "pim", "start scope=%d op=%s buffered=%d", req.Scope, name, buffered)
	}
	m.k.ScheduleCtx(m.execLatency(req), m.completeFn, req)
	return true
}

func (m *Module) execLatency(req *mem.Request) sim.Tick {
	if m.ZeroLatency {
		return 0
	}
	micro := 0
	if req.PIM != nil && req.PIM.Program != nil {
		micro = req.PIM.Program.MicroOps
	}
	return m.FixedOpLatency + sim.Tick(micro)*m.CyclesPerMicroOp
}

func (m *Module) complete(req *mem.Request) {
	if m.Functional && req.PIM != nil && req.PIM.Program != nil && req.PIM.Program.Apply != nil {
		req.PIM.Program.Apply(m.Backing, req.Writer)
	}
	if m.Tracer.Enabled(trace.CatPIM) {
		m.Tracer.Emit(trace.CatPIM, "pim", "complete scope=%d", req.Scope)
	}
	m.ExecCycles.Observe(float64(m.execLatency(req)))
	m.OpsExecuted.Inc()
	m.scope(req.Scope).running = nil
	m.executing--
	m.freed, m.hasFreed = req.Scope, true
	if m.OnComplete != nil {
		m.OnComplete(req)
	}
	m.tryStart(req.Scope)
}
