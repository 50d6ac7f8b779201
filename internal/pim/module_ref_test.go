package pim

import (
	"fmt"
	"strings"
	"testing"

	"bulkpim/internal/mem"
	"bulkpim/internal/sim"
	"bulkpim/internal/trace"
)

// refModule is the reference PIM buffer: the original map-based module
// that walks its whole buffer, with a map busy check, on every arrival
// and completion, and rebuilds a scope set to count distinct scopes. The
// dense Module must reproduce its arrival samples, start order, trace
// text and OnSpace firings exactly.
type refModule struct {
	k          *sim.Kernel
	bufferSize int
	latency    func(*mem.Request) sim.Tick
	buffer     []*mem.Request
	executing  map[mem.ScopeID]*mem.Request
	onComplete func(*mem.Request)
	onSpace    func()
	log        func(string)
}

func (m *refModule) emit(msg string) {
	m.log(trace.Record{At: m.k.Now(), Cat: trace.CatPIM, Unit: "pim", Msg: msg}.String())
}

func (m *refModule) TryEnqueue(req *mem.Request) bool {
	if m.bufferSize > 0 && len(m.buffer) >= m.bufferSize {
		return false
	}
	seen := map[mem.ScopeID]struct{}{}
	for _, r := range m.buffer {
		seen[r.Scope] = struct{}{}
	}
	m.log(arrival(req, len(m.buffer), len(seen)))
	m.buffer = append(m.buffer, req)
	m.tryStart()
	return true
}

func (m *refModule) tryStart() {
	freed := false
	kept := m.buffer[:0]
	for _, req := range m.buffer {
		if _, busy := m.executing[req.Scope]; busy {
			kept = append(kept, req)
			continue
		}
		m.executing[req.Scope] = req
		freed = true
		m.emit(fmt.Sprintf("start scope=%d op=%s buffered=%d", req.Scope, req.PIM.Program.Name, len(m.buffer)))
		m.k.ScheduleCtx(m.latency(req), func(x any) { m.complete(x.(*mem.Request)) }, req)
	}
	m.buffer = kept
	if freed && m.onSpace != nil {
		m.onSpace()
	}
}

func (m *refModule) complete(req *mem.Request) {
	m.emit(fmt.Sprintf("complete scope=%d", req.Scope))
	delete(m.executing, req.Scope)
	if m.onComplete != nil {
		m.onComplete(req)
	}
	m.tryStart()
}

// opFeeder feeds one module a seeded op stream: timed arrivals, ops
// enqueued from inside completion callbacks (so a freed scope and a new
// arrival become startable in one pass), and rejected ops retried from
// OnSpace. Scopes include NoScope and a far scope that forces growth.
type opFeeder struct {
	k       *sim.Kernel
	rng     *sim.Rand
	enqueue func(*mem.Request) bool
	// sync, when set, runs before every log line, so samples the module
	// took since the last line are logged first.
	sync    func()
	log     []string
	pending []*mem.Request
	nextID  int
}

func (d *opFeeder) add(line string) {
	if d.sync != nil {
		d.sync()
	}
	d.log = append(d.log, line)
}

// Write makes the feeder the module tracer's sink.
func (d *opFeeder) Write(p []byte) (int, error) {
	d.add(strings.TrimSuffix(string(p), "\n"))
	return len(p), nil
}

func arrival(req *mem.Request, buflen, unique int) string {
	return fmt.Sprintf("arrive op=%s scope=%d buflen=%d unique=%d", req.PIM.Program.Name, req.Scope, buflen, unique)
}

func (d *opFeeder) newOp() *mem.Request {
	d.nextID++
	scope := mem.ScopeID(d.rng.Intn(7)) - 1
	if d.rng.Intn(20) == 0 {
		scope = 63
	}
	return &mem.Request{ID: uint64(d.nextID), Kind: mem.ReqPIMOp, Scope: scope,
		PIM: &mem.PIMCommand{Program: &mem.PIMProgram{
			Name: fmt.Sprintf("op%d", d.nextID), MicroOps: d.rng.Intn(6)}}}
}

// offer enqueues req, or parks it for a retry on the next OnSpace.
func (d *opFeeder) offer(req *mem.Request) {
	if !d.enqueue(req) {
		d.add(fmt.Sprintf("reject op=%s", req.PIM.Program.Name))
		d.pending = append(d.pending, req)
	}
}

func (d *opFeeder) onSpace() {
	d.add("space")
	if len(d.pending) > 0 {
		req := d.pending[0]
		d.pending = d.pending[1:]
		d.offer(req)
	}
}

func (d *opFeeder) onComplete(*mem.Request) {
	if d.sync != nil {
		d.sync()
	}
	if d.rng.Intn(3) == 0 {
		d.offer(d.newOp())
	}
}

func (d *opFeeder) run(t *testing.T, arrivals int) {
	var arrive func(any)
	left := arrivals
	arrive = func(any) {
		for n := d.rng.Intn(3) + 1; n > 0; n-- {
			d.offer(d.newOp())
		}
		if left--; left > 0 {
			d.k.ScheduleCtx(sim.Tick(d.rng.Intn(40)), arrive, nil)
		}
	}
	d.k.ScheduleCtx(0, arrive, nil)
	if _, err := d.k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestModuleMatchesMapReference: over seeded op streams and buffer sizes,
// the dense module's per-arrival BufLenOnArrival / UniqueScopesOnArr
// samples, its start/complete trace text (start order and buffered=%d
// included) and its OnSpace firings equal the map-based reference's.
func TestModuleMatchesMapReference(t *testing.T) {
	for _, bufSize := range []int{0, 1, 3, 8} {
		for seed := uint64(1); seed <= 25; seed++ {
			latency := func(r *mem.Request) sim.Tick { return 13 + sim.Tick(r.PIM.Program.MicroOps)*7 }

			ref := &opFeeder{k: sim.NewKernel(), rng: sim.NewRand(seed)}
			rm := &refModule{k: ref.k, bufferSize: bufSize, latency: latency,
				executing: map[mem.ScopeID]*mem.Request{}, log: ref.add,
				onComplete: ref.onComplete, onSpace: ref.onSpace}
			ref.enqueue = rm.TryEnqueue
			ref.run(t, 60)

			got := &opFeeder{k: sim.NewKernel(), rng: sim.NewRand(seed)}
			m := NewModule(got.k, mem.NewBacking())
			m.BufferSize, m.FixedOpLatency, m.CyclesPerMicroOp = bufSize, 13, 7
			m.Tracer = trace.New(got.k.Now, got, 1<<trace.CatPIM, 0)
			m.OnComplete, m.OnSpace = got.onComplete, got.onSpace
			// A module samples an arrival before anything else it does,
			// so a sample not yet logged at the next log line (or when
			// TryEnqueue returns) belongs to the latest arrival.
			var arriving []*mem.Request
			var logged uint64
			var buf, uniq float64
			got.sync = func() {
				if n := m.BufLenOnArrival.Count(); n > logged {
					b, u := m.BufLenOnArrival.Sum(), m.UniqueScopesOnArr.Sum()
					req := arriving[len(arriving)-1]
					got.log = append(got.log, arrival(req, int(b-buf), int(u-uniq)))
					logged, buf, uniq = n, b, u
				}
			}
			got.enqueue = func(req *mem.Request) bool {
				got.sync()
				arriving = append(arriving, req)
				ok := m.TryEnqueue(req)
				got.sync()
				arriving = arriving[:len(arriving)-1]
				return ok
			}
			got.run(t, 60)

			for i := 0; i < len(got.log) || i < len(ref.log); i++ {
				if i >= len(got.log) || i >= len(ref.log) {
					t.Fatalf("buf=%d seed=%d: %d events, reference %d", bufSize, seed, len(got.log), len(ref.log))
				}
				if got.log[i] != ref.log[i] {
					t.Fatalf("buf=%d seed=%d event %d:\n got %q\nwant %q", bufSize, seed, i, got.log[i], ref.log[i])
				}
			}
			if m.InFlight() != 0 || len(rm.buffer) != 0 || len(rm.executing) != 0 {
				t.Fatalf("buf=%d seed=%d: ops left in flight", bufSize, seed)
			}
		}
	}
}

// TestModuleScopeBusyOutOfRange: NoScope, scopes the module has never
// seen and invalid negative IDs are idle, not out-of-range indexes.
func TestModuleScopeBusyOutOfRange(t *testing.T) {
	k := sim.NewKernel()
	m := NewModule(k, mem.NewBacking())
	for _, s := range []mem.ScopeID{mem.NoScope, 0, 5, 1 << 20, -7} {
		if m.ScopeBusy(s) {
			t.Fatalf("fresh module: ScopeBusy(%d) = true", s)
		}
	}
	m.TryEnqueue(&mem.Request{Kind: mem.ReqPIMOp, Scope: 2,
		PIM: &mem.PIMCommand{Program: &mem.PIMProgram{MicroOps: 1}}})
	if !m.ScopeBusy(2) {
		t.Fatal("scope 2 should be executing")
	}
	for _, s := range []mem.ScopeID{mem.NoScope, 0, 3, 1 << 20, -7} {
		if m.ScopeBusy(s) {
			t.Fatalf("ScopeBusy(%d) = true with only scope 2 executing", s)
		}
	}
	if _, err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if m.ScopeBusy(2) || m.InFlight() != 0 {
		t.Fatal("scope 2 still busy after its op completed")
	}
}
