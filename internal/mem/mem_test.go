package mem

import (
	"bytes"
	"testing"
	"testing/quick"
)

func TestLineOf(t *testing.T) {
	cases := []struct {
		a    Addr
		want LineAddr
	}{
		{0, 0}, {1, 0}, {63, 0}, {64, 64}, {65, 64}, {1000, 960},
	}
	for _, c := range cases {
		if got := LineOf(c.a); got != c.want {
			t.Errorf("LineOf(%d) = %d, want %d", c.a, got, c.want)
		}
	}
	if LineAddr(128).Index() != 2 {
		t.Error("Index of line 128 should be 2")
	}
}

func TestScopeMap(t *testing.T) {
	m := NewScopeMap(DefaultPIMBase, DefaultScopeSize, 8)
	if m.ScopeOf(0) != NoScope {
		t.Error("low address should be NoScope")
	}
	if m.ScopeOf(DefaultPIMBase-1) != NoScope {
		t.Error("address below base should be NoScope")
	}
	if got := m.ScopeOf(DefaultPIMBase); got != 0 {
		t.Errorf("base address scope = %d, want 0", got)
	}
	if got := m.ScopeOf(DefaultPIMBase + DefaultScopeSize - 1); got != 0 {
		t.Errorf("end of scope 0 = %d, want 0", got)
	}
	if got := m.ScopeOf(DefaultPIMBase + DefaultScopeSize); got != 1 {
		t.Errorf("start of scope 1 = %d, want 1", got)
	}
	if got := m.ScopeOf(DefaultPIMBase + 8*DefaultScopeSize); got != NoScope {
		t.Errorf("past last scope = %d, want NoScope", got)
	}
	if m.ScopeBase(3) != DefaultPIMBase+3*DefaultScopeSize {
		t.Error("ScopeBase(3) wrong")
	}
	if m.End() != DefaultPIMBase+8*DefaultScopeSize {
		t.Error("End wrong")
	}
}

func TestScopeMapRoundTripProperty(t *testing.T) {
	m := NewScopeMap(DefaultPIMBase, DefaultScopeSize, 1024)
	prop := func(s uint16, off uint32) bool {
		scope := ScopeID(uint64(s) % 1024)
		a := m.ScopeBase(scope) + Addr(uint64(off)%DefaultScopeSize)
		return m.ScopeOf(a) == scope
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Fatal(err)
	}
}

func TestScopeMapValidation(t *testing.T) {
	mustPanic := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	mustPanic("non-pow2 size", func() { NewScopeMap(0, 3<<20, 4) })
	mustPanic("unaligned base", func() { NewScopeMap(Addr(123), DefaultScopeSize, 4) })
}

func TestBackingReadWrite(t *testing.T) {
	b := NewBacking()
	got := make([]byte, 16)
	b.Read(100, got)
	for _, x := range got {
		if x != 0 {
			t.Fatal("unallocated memory should read zero")
		}
	}
	data := []byte("hello, bulkpim!!")
	b.Write(100, data)
	b.Read(100, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("got %q, want %q", got, data)
	}
}

func TestBackingCrossPage(t *testing.T) {
	b := NewBacking()
	a := Addr(backPageSize - 5)
	data := []byte("0123456789")
	b.Write(a, data)
	got := make([]byte, len(data))
	b.Read(a, got)
	if !bytes.Equal(got, data) {
		t.Fatalf("cross-page: got %q want %q", got, data)
	}
	if b.PagesAllocated() != 2 {
		t.Fatalf("pages = %d, want 2", b.PagesAllocated())
	}
}

func TestBackingWords(t *testing.T) {
	b := NewBacking()
	b.WriteWord(64, 0xdeadbeefcafef00d)
	if got := b.ReadWord(64); got != 0xdeadbeefcafef00d {
		t.Fatalf("word = %#x", got)
	}
	b.SetByte(200, 0xab)
	if b.ByteAt(200) != 0xab {
		t.Fatal("byte round trip failed")
	}
}

func TestBackingLine(t *testing.T) {
	b := NewBacking()
	line := make([]byte, LineSize)
	for i := range line {
		line[i] = byte(i)
	}
	b.WriteLine(128, line)
	got := make([]byte, LineSize)
	b.ReadLine(128, got)
	if !bytes.Equal(got, line) {
		t.Fatal("line round trip failed")
	}
}

func TestBackingWriterTracking(t *testing.T) {
	b := NewBacking()
	b.SetWriter(64, 7)
	if b.WriterOf(64) != 0 {
		t.Fatal("tracking disabled should be no-op")
	}
	b.TrackWriters = true
	b.SetWriter(64, 7)
	if b.WriterOf(64) != 7 {
		t.Fatal("writer not recorded")
	}
	b.SetWriterRange(60, 10, 9) // spans lines 0 and 64
	if b.WriterOf(0) != 9 || b.WriterOf(64) != 9 {
		t.Fatal("writer range not recorded")
	}
}

// Writer storage is lazy: timing-only runs never allocate a writer table
// (nor a page for one), and either SetWriter entry point materializes one
// on the first tracked write.
func TestBackingWritersMapLazy(t *testing.T) {
	b := NewBacking()
	b.SetWriter(64, 7)
	b.SetWriterRange(0, 128, 8)
	if b.PagesAllocated() != 0 {
		t.Fatal("untracked writer tags materialized a page")
	}
	b.Write(0, make([]byte, 2*backPageSize))
	untracked := func() {
		b.SetWriter(64, 7)
		b.SetWriterRange(0, 2*backPageSize, 8)
	}
	if avg := testing.AllocsPerRun(10, untracked); avg != 0 {
		t.Fatalf("untracked writer tags allocate %.1f objects, want 0", avg)
	}
	if b.writers != nil {
		t.Fatal("untracked writes allocated writer tables")
	}
	if b.WriterOf(64) != 0 {
		t.Fatal("untracked write was recorded")
	}
	b.TrackWriters = true
	b.SetWriterRange(0, 64, 3)
	if b.WriterOf(0) != 3 || b.WriterOf(64) != 0 {
		t.Fatal("lazy table lost a tracked range write")
	}
	c := NewBacking()
	c.TrackWriters = true
	c.SetWriter(64, 5)
	if c.WriterOf(64) != 5 {
		t.Fatal("lazy table lost a tracked write")
	}
}

// Property: write-then-read round trips arbitrary buffers at arbitrary
// addresses.
func TestBackingRoundTripProperty(t *testing.T) {
	prop := func(addr uint32, data []byte) bool {
		if len(data) > 10000 {
			data = data[:10000]
		}
		b := NewBacking()
		b.Write(Addr(addr), data)
		got := make([]byte, len(data))
		b.Read(Addr(addr), got)
		return bytes.Equal(got, data)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
