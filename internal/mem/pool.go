package mem

import "fmt"

// poolBlock is how many Requests (and line buffers) a pool materializes per
// arena growth. Like sim's event arena, allocating in blocks keeps the
// steady state allocation-free and amortizes growth to one allocation per
// block instead of one per request.
const poolBlock = 128

// RequestPool recycles Requests and 64-byte line buffers so the steady-state
// transaction path performs no heap allocations. It is arena-backed: Get
// pops a free-list entry, refilling from a freshly allocated block only when
// the free list is empty, so a warmed pool never allocates.
//
// Ownership follows the request (see Request.OnDone): the component that
// invokes a request's completion releases it with Put. Put zeroes the
// request, returns Data to the line pool when DataPooled is set, and panics
// on double-Put — a released pointer must never be touched again.
//
// The pool is not safe for concurrent use; like the sim kernel it belongs
// to exactly one single-threaded simulated system.
type RequestPool struct {
	// Disabled turns Get/GetLine into plain allocations and Put/PutLine
	// into no-ops. The unpooled transaction-path benchmark baseline runs
	// this way; it also gives a one-line escape hatch when hunting a
	// suspected lifecycle bug.
	Disabled bool

	free  []*Request
	lines [][]byte

	// Gets and Puts count pool traffic for stats and leak diagnosis.
	Gets, Puts uint64
}

// NewRequestPool returns an empty pool; storage materializes on demand.
func NewRequestPool() *RequestPool { return &RequestPool{} }

// Get returns a zeroed Request owned by the caller.
func (p *RequestPool) Get() *Request {
	if p.Disabled {
		return &Request{}
	}
	p.Gets++
	n := len(p.free)
	if n == 0 {
		block := make([]Request, poolBlock)
		for i := range block {
			block[i].pooled = true
			block[i].fromPool = true
			p.free = append(p.free, &block[i])
		}
		n = poolBlock
	}
	r := p.free[n-1]
	p.free = p.free[:n-1]
	r.pooled = false
	return r
}

// Put releases r back to the pool. Foreign requests — ones built with a
// plain &Request{} rather than Get — are left untouched, so release points
// can run unconditionally. For pool-born requests the Data buffer is
// returned to the line pool iff DataPooled is set, and every other field is
// cleared so the next Get starts from a zero request and no callback or
// context outlives its transaction.
func (p *RequestPool) Put(r *Request) {
	if p.Disabled || !r.fromPool {
		return
	}
	if r.pooled {
		panic(fmt.Sprintf("mem: double Put of pooled request %s", r))
	}
	if r.DataPooled {
		p.PutLine(r.Data)
	}
	*r = Request{pooled: true, fromPool: true}
	p.Puts++
	p.free = append(p.free, r)
}

// GetLine returns a zeroed LineSize buffer owned by the caller.
func (p *RequestPool) GetLine() []byte {
	if p.Disabled {
		return make([]byte, LineSize)
	}
	n := len(p.lines)
	if n == 0 {
		block := make([]byte, poolBlock*LineSize)
		for i := 0; i < poolBlock; i++ {
			p.lines = append(p.lines, block[i*LineSize:(i+1)*LineSize:(i+1)*LineSize])
		}
		n = poolBlock
	}
	b := p.lines[n-1]
	p.lines = p.lines[:n-1]
	clear(b)
	return b
}

// PutLine releases a buffer obtained from GetLine. Putting nil or a
// foreign-sized slice is a no-op/invalid respectively; callers only ever
// hand back what GetLine produced.
func (p *RequestPool) PutLine(b []byte) {
	if p.Disabled || b == nil {
		return
	}
	p.lines = append(p.lines, b[:LineSize])
}

// CloneLine returns a pooled copy of src (the pooling replacement for the
// caches' old cloneData/make-per-fill).
func (p *RequestPool) CloneLine(src []byte) []byte {
	b := p.GetLine()
	copy(b, src)
	return b
}
