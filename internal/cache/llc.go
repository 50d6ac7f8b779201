package cache

import (
	"bulkpim/internal/core"
	"bulkpim/internal/mem"
	"bulkpim/internal/memctrl"
	"bulkpim/internal/noc"
	"bulkpim/internal/sim"
	"bulkpim/internal/stats"
	"bulkpim/internal/trace"
)

// LLC is the shared, inclusive last-level cache with the MESI directory
// and the paper's coherence hardware: the scope buffer and SBV (§IV). PIM
// ops scan-and-flush their scope here before being forwarded to the memory
// controller, which is what makes the flush atomic with the op.
type LLC struct {
	k     *sim.Kernel
	Model core.Model

	arr        setAssoc
	HitLatency sim.Tick
	// ScanPerSet / ScanPerLine drive scan cost: cycles per checked set and
	// per flushed line.
	ScanPerSet  sim.Tick
	ScanPerLine sim.Tick

	SB     *core.ScopeBuffer
	SBV    *core.SBV
	Scopes *mem.ScopeMap

	// Pool supplies requests, fills and line buffers. NewLLC creates a
	// private pool; the system builder overrides it so the whole machine
	// shares one.
	Pool *mem.RequestPool

	l1s  []*L1
	down []*noc.Link // per-core response links

	mc     *memctrl.Controller
	mcLink *noc.Link // LLC -> MC, FIFO (hardware memory channel)
	mcResp *noc.Link // MC -> LLC fills

	egress     []*mem.Request
	egHead     int
	inflightMC int
	pumping    bool

	queue         []llcWork
	qHead         int
	busyUntil     sim.Tick
	wakeScheduled bool

	mshr     *mem.LineTable[llcMiss]
	missFree []*llcMiss
	fillFree []*fillMsg

	// recallBuf is the scratch an owner L1's dirty payload is recalled
	// into; every RecallLine result is consumed before the next call.
	recallBuf [mem.LineSize]byte

	// victims is scanFlush's reusable per-set eviction list.
	victims []*Line

	// Hoisted callbacks (built once in NewLLC) so the steady-state
	// request path schedules and sends without allocating closures.
	wakeFn      func(any)
	fetchDoneFn func(*mem.Request, any)
	fillRecvFn  func(any)
	mcDeliverFn func(any)

	// Tracer, when enabled for CatCache, logs request handling and scans.
	Tracer *trace.Tracer

	// Stats feeding Fig. 9 / 10c / 10d.
	ScanLatency  stats.Mean  // per PIM op, scope-buffer hits count as 0
	SBHitRate    stats.Ratio // scope buffer hit rate
	SkipRatio    stats.Mean  // SBV skipped-set ratio per actual scan
	Scans        stats.Counter
	LinesFlushed stats.Counter
	Hits, Misses stats.Counter
	Writebacks   stats.Counter
	QueuePeak    int
}

// llcWork is one queued unit of LLC occupancy: a request to handle or a
// returned memory fetch to install (fill). A struct instead of a closure
// keeps the pipeline queue allocation-free.
type llcWork struct {
	req  *mem.Request
	fill bool
}

type llcMiss struct {
	stale   bool
	issued  bool
	waiters []*mem.Request
}

// fillMsg is a pooled L1-fill message: grant/deliverFill stage one,
// deliverFillMsg unpacks it at the core tile and releases it. data, when
// non-nil, is a pooled line owned by the message.
type fillMsg struct {
	l       *LLC
	addr    mem.LineAddr
	state   MESI
	data    []byte
	writer  uint64
	pim     bool
	scope   mem.ScopeID
	noCache bool
	coreID  int
}

// deliverFillMsg runs at the receiving core tile: hand the payload to the
// L1 and recycle the message and its buffer.
func deliverFillMsg(x any) {
	m := x.(*fillMsg)
	m.l.l1s[m.coreID].Fill(m.addr, m.state, m.data, m.writer, m.pim, m.scope, m.noCache)
	if m.data != nil {
		m.l.Pool.PutLine(m.data)
		m.data = nil
	}
	m.l.putFill(m)
}

// NewLLC builds the shared cache. Wire it with Connect before use.
func NewLLC(k *sim.Kernel, model core.Model, sets, ways int, hitLatency sim.Tick, scopes *mem.ScopeMap) *LLC {
	l := &LLC{
		k:           k,
		Model:       model,
		arr:         newSetAssoc(sets, ways),
		HitLatency:  hitLatency,
		ScanPerSet:  1,
		ScanPerLine: 2,
		Scopes:      scopes,
		Pool:        mem.NewRequestPool(),
		mshr:        mem.NewLineTable[llcMiss](),
	}
	if model.FlushesLLCOnPIMOp() {
		l.SB = core.NewScopeBuffer(64, 4)
		l.SBV = core.NewSBV(sets)
	}
	l.wakeFn = func(any) {
		l.wakeScheduled = false
		l.process()
	}
	l.fillRecvFn = func(x any) { l.enqueueFill(x.(*mem.Request)) }
	l.fetchDoneFn = func(r *mem.Request, _ any) { l.mcResp.SendCtx(l.fillRecvFn, r) }
	l.mcDeliverFn = func(x any) {
		l.inflightMC--
		if !l.mc.Enqueue(x.(*mem.Request)) {
			panic("cache: MC rejected a credited request")
		}
	}
	return l
}

// Connect wires the LLC to its L1s, per-core response links, the memory
// controller and the links to/from it.
func (l *LLC) Connect(l1s []*L1, down []*noc.Link, mc *memctrl.Controller, mcLink, mcResp *noc.Link) {
	l.l1s = l1s
	l.down = down
	l.mc = mc
	l.mcLink = mcLink
	l.mcResp = mcResp
	mc.OnSpace = func() { l.pump() }
}

// SetScopeBufferGeometry overrides the default 64x4 scope buffer.
func (l *LLC) SetScopeBufferGeometry(sets, ways int) {
	if l.SB != nil {
		l.SB = core.NewScopeBuffer(sets, ways)
	}
}

// DisableScopeBuffer removes the scope buffer: every PIM op scans
// (ablation of §IV-A).
func (l *LLC) DisableScopeBuffer() { l.SB = nil }

// DisableSBV removes the scope bit-vector: scans check every set
// (ablation of §IV-B).
func (l *LLC) DisableSBV() { l.SBV = nil }

func (l *LLC) getMiss() *llcMiss {
	if n := len(l.missFree); n > 0 {
		e := l.missFree[n-1]
		l.missFree = l.missFree[:n-1]
		return e
	}
	return &llcMiss{}
}

func (l *LLC) putMiss(e *llcMiss) {
	for i := range e.waiters {
		e.waiters[i] = nil
	}
	e.waiters = e.waiters[:0]
	e.stale, e.issued = false, false
	l.missFree = append(l.missFree, e)
}

func (l *LLC) getFill() *fillMsg {
	if n := len(l.fillFree); n > 0 {
		m := l.fillFree[n-1]
		l.fillFree = l.fillFree[:n-1]
		return m
	}
	return &fillMsg{l: l}
}

func (l *LLC) putFill(m *fillMsg) {
	*m = fillMsg{l: l}
	l.fillFree = append(l.fillFree, m)
}

// Receive is the entry point for requests arriving over the network.
func (l *LLC) Receive(req *mem.Request) {
	l.enqueue(llcWork{req: req})
}

// enqueueFill queues a returned memory fetch for installation.
func (l *LLC) enqueueFill(fetch *mem.Request) {
	l.enqueue(llcWork{req: fetch, fill: true})
}

func (l *LLC) enqueue(w llcWork) {
	l.queue = append(l.queue, w)
	if n := len(l.queue) - l.qHead; n > l.QueuePeak {
		l.QueuePeak = n
	}
	l.process()
}

func (l *LLC) process() {
	now := l.k.Now()
	if now < l.busyUntil {
		l.wake()
		return
	}
	if l.qHead == len(l.queue) {
		return
	}
	w := l.queue[l.qHead]
	l.queue[l.qHead] = llcWork{}
	l.qHead++
	if l.qHead == len(l.queue) {
		// Drained: rewind so the backing array is reused forever.
		l.queue = l.queue[:0]
		l.qHead = 0
	}
	var cost sim.Tick
	if w.fill {
		cost = l.fillArrived(w.req)
		// The fetch request's round trip is over; the LLC issued it, so
		// the LLC releases it (and its pooled data) here.
		l.Pool.Put(w.req)
	} else {
		cost = l.handle(w.req)
	}
	l.busyUntil = l.k.Now() + cost
	if l.qHead < len(l.queue) {
		l.wake()
	}
}

func (l *LLC) wake() {
	if l.wakeScheduled {
		return
	}
	l.wakeScheduled = true
	l.k.ScheduleAtCtx(l.busyUntil, l.wakeFn, nil)
}

// handle services one request and returns the cycles it occupies the LLC.
func (l *LLC) handle(req *mem.Request) sim.Tick {
	if l.Tracer.Enabled(trace.CatCache) {
		l.Tracer.Emit(trace.CatCache, "llc", "%s", req)
	}
	switch {
	case req.Uncacheable:
		return l.handleUncacheable(req)
	case req.Kind == mem.ReqPIMOp:
		return l.handlePIMOp(req)
	case req.Kind == mem.ReqScopeFence:
		return l.handleScopeFence(req)
	case req.Kind == mem.ReqFlush:
		return l.handleFlush(req)
	case req.Kind == mem.ReqLoad:
		return l.handleMiss(req)
	default:
		// Stores reach the LLC only uncacheable; writebacks arrive via
		// WritebackFromL1. Anything else is a programming error.
		panic("cache: unexpected request at LLC: " + req.Kind.String())
	}
}

// handleUncacheable passes the request straight to the memory controller.
// Completion flows through the request's own OnDone: the issuing core's
// first stage sends the finished request back over its response link, the
// same hop the old closure wrapper made here.
func (l *LLC) handleUncacheable(req *mem.Request) sim.Tick {
	l.egressPush(req)
	return 1 // pass-through occupancy
}

// handleMiss services an L1 GetS/GetM.
func (l *LLC) handleMiss(req *mem.Request) sim.Tick {
	ln := l.arr.Lookup(req.Line)
	if ln.Valid() {
		l.Hits.Inc()
		cost := l.HitLatency
		if ln.Owner >= 0 && ln.Owner != req.Core {
			writer, dirty, present := l.l1s[ln.Owner].RecallLine(req.Line, req.Excl, l.recallBuf[:])
			if present {
				if dirty {
					setLineData(l.Pool, ln, l.recallBuf[:])
					ln.Writer = writer
					ln.Dirty = true
				}
				if !req.Excl {
					ln.Sharers |= 1 << uint(ln.Owner)
				}
			}
			ln.Owner = -1
			cost += 8 // owner round trip
		}
		l.grant(ln, req)
		l.Pool.Put(req)
		return cost
	}
	l.Misses.Inc()
	e := l.mshr.Get(req.Line)
	if e == nil {
		e = l.getMiss()
		l.mshr.Set(req.Line, e)
	}
	e.waiters = append(e.waiters, req)
	if !e.issued {
		e.issued = true
		l.issueMemoryFetch(req.Line, req.Scope)
	}
	return l.HitLatency
}

func (l *LLC) issueMemoryFetch(line mem.LineAddr, scope mem.ScopeID) {
	fetch := l.Pool.Get()
	fetch.Kind, fetch.Line, fetch.Scope = mem.ReqLoad, line, scope
	fetch.Core = -1
	fetch.OnDone = l.fetchDoneFn
	l.egressPush(fetch)
}

// fillArrived installs a memory fill and serves the waiters. The caller
// releases fetch afterwards.
func (l *LLC) fillArrived(fetch *mem.Request) sim.Tick {
	e := l.mshr.Get(fetch.Line)
	if e == nil {
		return l.HitLatency
	}
	if e.stale {
		// The scope was scanned-and-flushed while this miss was
		// outstanding: installing would resurrect a pre-PIM copy after
		// the flush that must be atomic with the PIM op. Loads get their
		// (legitimately pre-PIM, ordered-before) data without caching;
		// store misses are replayed so they fetch post-PIM data.
		e.stale = false
		keep := e.waiters[:0]
		for _, w := range e.waiters {
			if w.Excl {
				keep = append(keep, w)
			} else {
				l.deliverFill(w, Shared, fetch.Data, fetch.Writer, true)
				l.Pool.Put(w)
			}
		}
		for i := len(keep); i < len(e.waiters); i++ {
			e.waiters[i] = nil
		}
		e.waiters = keep
		if len(e.waiters) > 0 {
			l.issueMemoryFetch(fetch.Line, fetch.Scope)
			return l.HitLatency
		}
		l.mshr.Delete(fetch.Line)
		l.putMiss(e)
		return l.HitLatency
	}
	l.mshr.Delete(fetch.Line)
	v := l.arr.Peek(fetch.Line)
	if v.Valid() {
		// The line reappeared (e.g. installed by a racing writeback path);
		// reuse the slot.
		l.dropLine(v)
	} else {
		v = l.arr.Victim(fetch.Line)
		if v.Valid() {
			l.evictVictim(v)
		}
	}
	l.arr.Install(v, fetch.Line, Shared)
	setLineData(l.Pool, v, fetch.Data)
	v.Writer = fetch.Writer
	scope := l.Scopes.ScopeOf(fetch.Line.Addr())
	v.Scope = scope
	v.PIMEnabled = scope != mem.NoScope
	if v.PIMEnabled {
		if l.SBV != nil {
			l.SBV.OnInsert(l.arr.SetOf(fetch.Line))
		}
		if l.SB != nil {
			l.SB.Invalidate(scope)
		}
	}
	n := len(e.waiters)
	for _, w := range e.waiters {
		l.grant(v, w)
		l.Pool.Put(w)
	}
	l.putMiss(e)
	return l.HitLatency + sim.Tick(n)
}

// grant gives the requesting L1 its copy per MESI and replies with a fill.
// The caller owns (and afterwards releases) req.
func (l *LLC) grant(ln *Line, req *mem.Request) {
	var state MESI
	if req.Excl {
		// Invalidate all other holders.
		for i := range l.l1s {
			if i == req.Core {
				continue
			}
			if ln.Sharers&(1<<uint(i)) != 0 || ln.Owner == i {
				writer, dirty, present := l.l1s[i].RecallLine(ln.Addr, true, l.recallBuf[:])
				if present && dirty {
					setLineData(l.Pool, ln, l.recallBuf[:])
					ln.Writer = writer
					ln.Dirty = true
				}
			}
		}
		ln.Sharers = 0
		ln.Owner = req.Core
		state = Exclusive
	} else if ln.Sharers == 0 && ln.Owner < 0 {
		ln.Owner = req.Core
		state = Exclusive
	} else {
		ln.Sharers |= 1 << uint(req.Core)
		state = Shared
	}
	m := l.getFill()
	m.addr, m.state = ln.Addr, state
	if ln.Data != nil {
		m.data = l.Pool.CloneLine(ln.Data)
	}
	m.writer = ln.Writer
	m.pim, m.scope = ln.PIMEnabled, ln.Scope
	m.coreID = req.Core
	l.down[m.coreID].SendCtx(deliverFillMsg, m)
}

// deliverFill sends a bypass (no-cache) fill for a stale miss.
func (l *LLC) deliverFill(req *mem.Request, state MESI, data []byte, writer uint64, noCache bool) {
	m := l.getFill()
	m.addr, m.state = req.Line, state
	if data != nil {
		m.data = l.Pool.CloneLine(data)
	}
	m.writer = writer
	m.pim, m.scope = req.Scope != mem.NoScope, req.Scope
	m.noCache = noCache
	m.coreID = req.Core
	l.down[m.coreID].SendCtx(deliverFillMsg, m)
}

// evictVictim enforces inclusivity: recall every L1 copy, write back dirty
// data, clear SBV.
func (l *LLC) evictVictim(v *Line) {
	for i := range l.l1s {
		if v.Sharers&(1<<uint(i)) != 0 || v.Owner == i {
			writer, dirty, present := l.l1s[i].RecallLine(v.Addr, true, l.recallBuf[:])
			if present && dirty {
				setLineData(l.Pool, v, l.recallBuf[:])
				v.Writer = writer
				v.Dirty = true
			}
		}
	}
	if v.Dirty {
		l.writebackToMemory(v)
	}
	if v.PIMEnabled && l.SBV != nil {
		l.SBV.OnEvict(l.arr.SetOf(v.Addr))
	}
	l.dropLine(v)
}

// dropLine invalidates a slot, returning its payload buffer to the pool.
func (l *LLC) dropLine(v *Line) {
	if v.Data != nil {
		l.Pool.PutLine(v.Data)
		v.Data = nil
	}
	l.arr.Invalidate(v)
}

func (l *LLC) writebackToMemory(v *Line) {
	l.Writebacks.Inc()
	r := l.Pool.Get()
	r.Kind, r.Line, r.Scope = mem.ReqWriteback, v.Addr, v.Scope
	r.Writer, r.Core = v.Writer, -1
	if v.Data != nil {
		r.Data = l.Pool.CloneLine(v.Data)
		r.DataPooled = true
	}
	l.egressPush(r)
}

// WritebackFromL1 merges a dirty L1 eviction. State changes are atomic;
// the link occupancy is charged by the caller's event timing.
func (l *LLC) WritebackFromL1(coreID int, line mem.LineAddr, data []byte, writer uint64) {
	ln := l.arr.Peek(line)
	if !ln.Valid() {
		// Raced with an LLC eviction whose recall already captured the
		// data; nothing to do.
		return
	}
	setLineData(l.Pool, ln, data)
	ln.Writer = writer
	ln.Dirty = true
	if ln.Owner == coreID {
		ln.Owner = -1
	}
	ln.Sharers &^= 1 << uint(coreID)
}

// handleFlush implements the SW-Flush baseline's cache-line flush.
func (l *LLC) handleFlush(req *mem.Request) sim.Tick {
	cost := l.HitLatency
	ln := l.arr.Peek(req.Line)
	if ln.Valid() {
		l.evictVictim(ln) // recalls L1 copies, writes back if dirty
		cost += l.ScanPerLine
	}
	l.ackRequester(req)
	return cost
}

// ackRequester completes a request that terminates at the LLC (flush,
// scope-fence) by sending it back over the issuing core's response link;
// the completion callback — and the release — run at the core tile. A
// request nobody waits on is released here.
func (l *LLC) ackRequester(req *mem.Request) {
	if req.OnDone != nil {
		l.down[req.Core].SendCtx(completeReq, req)
	} else {
		l.Pool.Put(req)
	}
}

// handlePIMOp implements Fig. 4: scope buffer lookup, scan-and-flush on a
// miss, then forwarding to the memory controller. Baseline models forward
// without any coherence action.
func (l *LLC) handlePIMOp(req *mem.Request) sim.Tick {
	if !l.Model.FlushesLLCOnPIMOp() {
		l.egressPush(req)
		return 1
	}
	l.markStaleMisses(req.Scope)
	if l.SB != nil && l.SB.Lookup(req.Scope) {
		l.SBHitRate.Hit()
		l.ScanLatency.Observe(0)
		l.egressPush(req)
		return l.HitLatency
	}
	l.SBHitRate.Miss()
	cost := l.scanFlush(req.Scope)
	l.ScanLatency.Observe(float64(cost))
	if l.SB != nil {
		l.SB.Insert(req.Scope)
	}
	l.egressPush(req)
	return l.HitLatency + cost
}

// handleScopeFence scans-and-flushes like a PIM op but terminates here,
// acknowledging the issuing core (§V-E).
func (l *LLC) handleScopeFence(req *mem.Request) sim.Tick {
	cost := sim.Tick(0)
	l.markStaleMisses(req.Scope)
	if l.SB != nil && l.SB.Lookup(req.Scope) {
		l.SBHitRate.Hit()
	} else {
		if l.SB != nil {
			l.SBHitRate.Miss()
		}
		cost = l.scanFlush(req.Scope)
		if l.SB != nil {
			l.SB.Insert(req.Scope)
		}
	}
	l.ackRequester(req)
	return l.HitLatency + cost
}

// scanFlush walks the sets the SBV marks, flushing every line of the scope
// (recalling L1 copies first), and returns the scan cost.
func (l *LLC) scanFlush(scope mem.ScopeID) sim.Tick {
	l.Scans.Inc()
	scanned, flushed := 0, 0
	for s := scanNext(l.SBV, l.arr.sets, 0); s >= 0; s = scanNext(l.SBV, l.arr.sets, s+1) {
		scanned++
		l.victims = l.victims[:0]
		set := l.arr.set(s)
		for i := range set {
			if set[i].valid && set[i].Scope == scope {
				l.victims = append(l.victims, &set[i])
			}
		}
		for _, ln := range l.victims {
			flushed++
			l.evictVictim(ln)
		}
	}
	l.LinesFlushed.Add(uint64(flushed))
	l.SkipRatio.Observe(1 - float64(scanned)/float64(l.arr.sets))
	if l.Tracer.Enabled(trace.CatCache) {
		l.Tracer.Emit(trace.CatCache, "llc", "scan scope=%d sets=%d flushed=%d", scope, scanned, flushed)
	}
	return l.ScanPerSet*sim.Tick(scanned) + l.ScanPerLine*sim.Tick(flushed)
}

// markStaleMisses flags outstanding misses of the scope so their fills do
// not resurrect flushed lines (see fillArrived).
func (l *LLC) markStaleMisses(scope mem.ScopeID) {
	for i := 0; i < l.mshr.Slots(); i++ {
		if line, e := l.mshr.Slot(i); e != nil && l.Scopes.ScopeOf(line.Addr()) == scope {
			e.stale = true
		}
	}
}

// egressPush appends a request to the FIFO toward the memory controller
// and pumps it. Credits against the MC queue guarantee delivery order and
// acceptance (the LLC is the controller's only producer).
func (l *LLC) egressPush(req *mem.Request) {
	l.egress = append(l.egress, req)
	l.pump()
}

func (l *LLC) pump() {
	if l.pumping {
		return
	}
	l.pumping = true
	for l.egHead < len(l.egress) && l.mc.QueueLen()+l.inflightMC < l.mc.QueueSize {
		req := l.egress[l.egHead]
		l.egress[l.egHead] = nil
		l.egHead++
		l.inflightMC++
		l.mcLink.SendOrderedCtx(l.mcDeliverFn, req)
	}
	if l.egHead == len(l.egress) {
		l.egress = l.egress[:0]
		l.egHead = 0
	}
	l.pumping = false
}

// EgressBacklog reports requests waiting for MC space (congestion signal).
func (l *LLC) EgressBacklog() int { return len(l.egress) - l.egHead }

// HasLine reports LLC presence of a line (tests).
func (l *LLC) HasLine(line mem.LineAddr) bool { return l.arr.Peek(line).Valid() }

// LineCount reports valid lines (tests).
func (l *LLC) LineCount() int { return l.arr.CountValid() }

// L1s exposes the connected L1 caches (system wiring, tests).
func (l *LLC) L1s() []*L1 { return l.l1s }

// CheckInclusive verifies every valid L1 line is present in the LLC
// (property tests). It returns the first violating line address.
func (l *LLC) CheckInclusive() (mem.LineAddr, bool) {
	for _, l1 := range l.l1s {
		for i := range l1.arr.lines {
			ln := &l1.arr.lines[i]
			if ln.valid && !l.arr.Peek(ln.Addr).Valid() {
				return ln.Addr, true
			}
		}
	}
	return 0, false
}

// CheckSWMR verifies the single-writer/multiple-reader invariant across
// L1s: a line modified in one L1 appears in no other L1.
func (l *LLC) CheckSWMR() (mem.LineAddr, bool) {
	type holder struct{ m, any int }
	seen := make(map[mem.LineAddr]*holder)
	for _, l1 := range l.l1s {
		for i := range l1.arr.lines {
			ln := &l1.arr.lines[i]
			if !ln.valid {
				continue
			}
			h := seen[ln.Addr]
			if h == nil {
				h = &holder{}
				seen[ln.Addr] = h
			}
			h.any++
			if ln.State == Modified || ln.State == Exclusive {
				h.m++
			}
		}
	}
	for addr, h := range seen {
		if h.m > 0 && h.any > 1 {
			return addr, true
		}
	}
	return 0, false
}
