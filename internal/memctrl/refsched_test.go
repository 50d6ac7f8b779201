package memctrl

import "bulkpim/internal/mem"

// The retained reference scheduler: the pre-index implementation that
// re-derives readiness with a linear conflict scan over the whole pending
// queue on every pass — O(n²) in queue depth. It is kept as the executable
// specification of the §V-A ordering rules: the differential property
// tests pin the indexed scheduler to it over randomized request streams,
// and BenchmarkScheduleRef measures the cost the indexes remove.

// useReferenceScheduler switches this controller's scheduling pass to
// the linear-scan reference. Call it before the first Enqueue. The
// indexed bookkeeping keeps running underneath; the reference pass
// ignores it.
func (c *Controller) useReferenceScheduler() {
	c.pass = c.refSchedulePass
}

// earlierConflictRef reports whether a queued, unfinished operation that
// e must wait for exists, by scanning the whole queue — the original
// O(n) conflict check the dependency indexes replace.
func (c *Controller) earlierConflictRef(e *entry) bool {
	if e.req.Kind == mem.ReqPIMOp {
		// A PIM op waits for every earlier same-scope operation, of any
		// kind, still in the queue.
		for o := c.qHead; o != nil; o = o.qNext {
			if o.seq < e.seq && o.req.Scope == e.req.Scope {
				return true
			}
		}
		return false
	}
	// Loads/stores/writebacks wait for (a) earlier same-scope PIM ops not
	// yet completed by the PIM module, (b) earlier same-line accesses.
	if e.req.Scope != mem.NoScope {
		for _, r := range c.outstandingPIM(e.req.Scope) {
			if r.seq < e.seq {
				return true
			}
		}
	}
	for o := c.qHead; o != nil; o = o.qNext {
		if o.seq < e.seq && o.req.Line == e.req.Line {
			return true
		}
	}
	return false
}

// refSchedulePass is one pass of the reference scheduler: snapshot the
// queue, re-check every unissued entry against the linear scan, issue the
// conflict-free ones in arrival order. Runs under schedule()'s
// re-entrancy guard. Entries the indexed bookkeeping marked stReady
// count as waiting, and the ready heap it fills is dropped unread.
func (c *Controller) refSchedulePass() {
	c.ready = c.ready[:0]
	now := c.k.Now()
	freed := false
	snapshot := make([]*entry, 0, c.queueLen)
	for e := c.qHead; e != nil; e = e.qNext {
		snapshot = append(snapshot, e)
	}
	for _, e := range snapshot {
		if e.state == stIssued {
			continue
		}
		if c.earlierConflictRef(e) {
			continue
		}
		isPIM := e.req.Kind == mem.ReqPIMOp // e is recycled on PIM issue
		if c.issue(e, now) && isPIM {
			freed = true
		}
	}
	if freed && c.OnSpace != nil {
		c.OnSpace()
	}
}
