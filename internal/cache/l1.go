package cache

import (
	"bulkpim/internal/core"
	"bulkpim/internal/mem"
	"bulkpim/internal/noc"
	"bulkpim/internal/sim"
	"bulkpim/internal/stats"
)

// L1 is a private first-level cache. Under the scope-relaxed model it also
// carries a scope buffer and SBV so scope-fences can scan it (§V-E); PIM
// ops pass through it unflushed on their way to the LLC.
type L1 struct {
	k      *sim.Kernel
	CoreID int

	arr        setAssoc
	HitLatency sim.Tick

	llc *LLC
	up  *noc.Link // requests toward the LLC

	// Pool supplies requests and line buffers. NewL1 creates a private
	// pool; the system builder overrides it so the whole machine shares
	// one.
	Pool *mem.RequestPool

	// SB/SBV are non-nil only for the scope-relaxed model.
	SB  *core.ScopeBuffer
	SBV *core.SBV

	mshr     *mem.LineTable[l1Miss]
	missFree []*l1Miss

	// deliverW/deliverX are reusable snapshots for waiter delivery:
	// waiters detach from the MSHR entry before running so a re-entrant
	// join lands on fresh state, without allocating per fill.
	deliverW []FillWaiter
	deliverX []ExclWaiter

	// victims is ScanFlushScope's reusable per-set eviction list.
	victims []*Line

	// Hoisted event/link callbacks (built once in NewL1) so the miss and
	// PIM-forward paths schedule without allocating closures.
	recvFn func(any)
	fwdFn  func(any)

	Hits, Misses stats.Counter
	Writebacks   stats.Counter
}

type l1Miss struct {
	excl    bool
	stale   bool // scope flushed while miss outstanding: do not install
	waiters []FillWaiter
	// exclWaiters are store completions that need a writable fill.
	exclWaiters []ExclWaiter
}

// NewL1 builds a private cache of sets x ways bound to kernel k. The
// upstream link and LLC are wired by the system builder via Connect.
func NewL1(k *sim.Kernel, coreID, sets, ways int, hitLatency sim.Tick) *L1 {
	c := &L1{
		k:          k,
		CoreID:     coreID,
		arr:        newSetAssoc(sets, ways),
		HitLatency: hitLatency,
		Pool:       mem.NewRequestPool(),
		mshr:       mem.NewLineTable[l1Miss](),
	}
	c.recvFn = func(x any) { c.llc.Receive(x.(*mem.Request)) }
	c.fwdFn = func(x any) { c.up.SendOrderedCtx(c.recvFn, x) }
	return c
}

// Connect wires the L1 to its LLC and upstream link.
func (c *L1) Connect(llc *LLC, up *noc.Link) {
	c.llc = llc
	c.up = up
}

// EnableScopeStructures attaches a scope buffer and SBV (scope-relaxed).
func (c *L1) EnableScopeStructures(sbSets, sbWays int) {
	c.SB = core.NewScopeBuffer(sbSets, sbWays)
	c.SBV = core.NewSBV(c.arr.sets)
}

func (c *L1) getMiss(excl bool) *l1Miss {
	if n := len(c.missFree); n > 0 {
		e := c.missFree[n-1]
		c.missFree = c.missFree[:n-1]
		e.excl = excl
		return e
	}
	return &l1Miss{excl: excl}
}

func (c *L1) putMiss(e *l1Miss) {
	for i := range e.waiters {
		e.waiters[i] = FillWaiter{}
	}
	for i := range e.exclWaiters {
		e.exclWaiters[i] = ExclWaiter{}
	}
	e.waiters = e.waiters[:0]
	e.exclWaiters = e.exclWaiters[:0]
	e.excl, e.stale = false, false
	c.missFree = append(c.missFree, e)
}

// TryLoad returns the line's data and writer on a hit. The returned slice
// is the cache's own pooled buffer: callers consume it synchronously.
func (c *L1) TryLoad(l mem.LineAddr) (data []byte, writer uint64, ok bool) {
	if ln := c.arr.Lookup(l); ln.Valid() {
		c.Hits.Inc()
		return ln.Data, ln.Writer, true
	}
	return nil, 0, false
}

// TryStore writes bytes into the line if the cache holds write permission
// (E or M), transitioning it to M.
func (c *L1) TryStore(l mem.LineAddr, off int, data []byte, writer uint64) bool {
	ln := c.arr.Lookup(l)
	if !ln.Valid() || (ln.State != Exclusive && ln.State != Modified) {
		return false
	}
	c.Hits.Inc()
	if ln.Data == nil {
		ln.Data = c.Pool.GetLine()
	}
	copy(ln.Data[off:off+len(data)], data)
	ln.State = Modified
	ln.Writer = writer
	return true
}

// HasLine reports presence (tests, adversarial prefetcher).
func (c *L1) HasLine(l mem.LineAddr) bool { return c.arr.Peek(l).Valid() }

// RequestLine issues (or joins) a miss. done receives the line data when
// the fill arrives; for exclusive requests the line is installed writable
// before exclDone runs. Joining an outstanding miss consumes (releases)
// req — it never leaves the core tile.
func (c *L1) RequestLine(req *mem.Request, done FillWaiter, exclDone ExclWaiter) {
	c.Misses.Inc()
	l := req.Line
	if e := c.mshr.Get(l); e != nil {
		if done.Fn != nil {
			e.waiters = append(e.waiters, done)
		}
		if exclDone.Fn != nil {
			e.exclWaiters = append(e.exclWaiters, exclDone)
			// Upgrade needed; the fill logic reissues as exclusive.
		}
		c.Pool.Put(req)
		return
	}
	e := c.getMiss(req.Excl)
	if done.Fn != nil {
		e.waiters = append(e.waiters, done)
	}
	if exclDone.Fn != nil {
		e.exclWaiters = append(e.exclWaiters, exclDone)
	}
	c.mshr.Set(l, e)
	c.sendMiss(req)
}

func (c *L1) sendMiss(req *mem.Request) {
	c.up.SendCtx(c.recvFn, req)
}

// ForwardPIM routes a PIM op (or scope-fence) through this cache level
// toward the LLC without flushing it (scope-relaxed, §V-E). PIM ops and
// scope-fences keep FIFO order on this path — the network must not let an
// op overtake a fence it follows (§V-E's "not allowed to reorder around
// the scope-fence in any path").
func (c *L1) ForwardPIM(req *mem.Request) {
	c.k.ScheduleCtx(c.HitLatency, c.fwdFn, req)
}

// Fill delivers a line from the LLC. state is Shared or Exclusive;
// noCache fills (scope flushed while the miss was outstanding) are handed
// to waiters without installing. data is the sender's buffer and is only
// read during the call.
func (c *L1) Fill(l mem.LineAddr, state MESI, data []byte, writer uint64, pimEnabled bool, scope mem.ScopeID, noCache bool) {
	e := c.mshr.Get(l)
	if e == nil {
		// Unsolicited fill (possible after local stale handling); drop.
		return
	}
	if e.stale {
		noCache = true
		e.stale = false
	}
	if !noCache {
		c.install(l, state, data, writer, pimEnabled, scope)
	}
	c.deliverW = append(c.deliverW[:0], e.waiters...)
	for i := range e.waiters {
		e.waiters[i] = FillWaiter{}
	}
	e.waiters = e.waiters[:0]
	for _, w := range c.deliverW {
		w.Fn(w.Ctx, l, data, writer)
	}
	// Exclusive waiters need a writable installed line.
	if len(e.exclWaiters) > 0 {
		ln := c.arr.Peek(l)
		if ln.Valid() && (ln.State == Exclusive || ln.State == Modified) {
			c.deliverX = append(c.deliverX[:0], e.exclWaiters...)
			c.mshr.Delete(l)
			c.putMiss(e)
			for _, w := range c.deliverX {
				w.Fn(w.Ctx)
			}
			return
		}
		// Fill was shared or bypassed: reissue exclusively.
		e.excl = true
		r := c.Pool.Get()
		r.Kind, r.Line, r.Scope, r.Core = mem.ReqLoad, l, scope, c.CoreID
		r.Excl, r.PIMEnabled = true, pimEnabled
		c.sendMiss(r)
		return
	}
	c.mshr.Delete(l)
	c.putMiss(e)
}

func (c *L1) install(l mem.LineAddr, state MESI, data []byte, writer uint64, pimEnabled bool, scope mem.ScopeID) {
	if ln := c.arr.Peek(l); ln.Valid() {
		// Upgrade in place (e.g. S -> E on a GetM fill).
		ln.State = state
		setLineData(c.Pool, ln, data)
		ln.Writer = writer
		return
	}
	v := c.arr.Victim(l)
	if v.Valid() {
		c.evict(v)
	}
	c.arr.Install(v, l, state)
	setLineData(c.Pool, v, data)
	v.Writer = writer
	v.PIMEnabled = pimEnabled
	v.Scope = scope
	if pimEnabled {
		if c.SBV != nil {
			c.SBV.OnInsert(c.arr.SetOf(l))
		}
		if c.SB != nil {
			c.SB.Invalidate(scope)
		}
	}
}

func (c *L1) evict(v *Line) {
	if v.State == Modified {
		c.Writebacks.Inc()
		c.llc.WritebackFromL1(c.CoreID, v.Addr, v.Data, v.Writer)
	}
	if v.PIMEnabled && c.SBV != nil {
		c.SBV.OnEvict(c.arr.SetOf(v.Addr))
	}
	c.dropLine(v)
}

// dropLine invalidates a slot, returning its payload buffer to the pool.
func (c *L1) dropLine(v *Line) {
	if v.Data != nil {
		c.Pool.PutLine(v.Data)
		v.Data = nil
	}
	c.arr.Invalidate(v)
}

// RecallLine is the LLC-initiated downgrade/invalidate. When it reports
// dirty, the line's payload has been copied into dst (len >= LineSize) —
// the caller owns dst, so no buffer changes hands. Invalidation updates
// the SBV.
func (c *L1) RecallLine(l mem.LineAddr, invalidate bool, dst []byte) (writer uint64, dirty, present bool) {
	ln := c.arr.Peek(l)
	if !ln.Valid() {
		return 0, false, false
	}
	dirty = ln.State == Modified && ln.Data != nil
	writer = ln.Writer
	if dirty {
		copy(dst[:mem.LineSize], ln.Data)
	}
	if invalidate {
		if ln.PIMEnabled && c.SBV != nil {
			c.SBV.OnEvict(c.arr.SetOf(l))
		}
		c.dropLine(ln)
	} else if ln.State == Modified || ln.State == Exclusive {
		ln.State = Shared
	}
	return writer, dirty, true
}

// ScanFlushScope scans this cache for lines of the scope, writing dirty
// ones back to the LLC and invalidating all of them. It returns the cost
// drivers (sets checked, lines flushed) and marks outstanding misses to
// the scope stale. Used by scope-fences at every level (§V-E).
func (c *L1) ScanFlushScope(scope mem.ScopeID) (setsScanned, flushed int) {
	if c.SB != nil && c.SB.Lookup(scope) {
		c.markStale(scope)
		return 0, 0
	}
	for s := scanNext(c.SBV, c.arr.sets, 0); s >= 0; s = scanNext(c.SBV, c.arr.sets, s+1) {
		setsScanned++
		c.victims = c.victims[:0]
		set := c.arr.set(s)
		for i := range set {
			if set[i].valid && set[i].Scope == scope && set[i].PIMEnabled {
				c.victims = append(c.victims, &set[i])
			}
		}
		for _, ln := range c.victims {
			flushed++
			c.evict(ln)
		}
	}
	if c.SB != nil {
		c.SB.Insert(scope)
	}
	c.markStale(scope)
	return setsScanned, flushed
}

func (c *L1) markStale(scope mem.ScopeID) {
	if c.llc == nil || c.llc.Scopes == nil {
		return
	}
	for i := 0; i < c.mshr.Slots(); i++ {
		if l, e := c.mshr.Slot(i); e != nil && c.llc.Scopes.ScopeOf(l.Addr()) == scope {
			e.stale = true
		}
	}
}

// LineCount reports valid lines (tests).
func (c *L1) LineCount() int { return c.arr.CountValid() }

// MSHRLen reports outstanding misses (deadlock diagnostics).
func (c *L1) MSHRLen() int { return c.mshr.Len() }
