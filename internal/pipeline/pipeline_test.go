package pipeline

import "testing"

func TestScratchReuse(t *testing.T) {
	pool := NewScratchPool()
	s := pool.Get()
	a := s.Ints(100)
	a[0] = 42
	s.PutInts(a)
	b := s.Ints(50)
	if &b[0] != &a[0] {
		t.Error("Ints did not reuse the returned buffer")
	}
	st := s.Int32s(64)
	st[3] = 9
	s.PutInt32s(st)
	st2 := s.Int32s(64)
	if &st2[0] != &st[0] {
		t.Error("Int32s did not reuse the returned buffer")
	}
	if st2[3] != 0 {
		t.Error("Int32s must re-zero reused buffers")
	}

	s.ResetFloats()
	f1 := s.Floats(32)
	f1[0] = 1
	f2 := s.Floats(32)
	if &f1[31] == &f2[0] {
		t.Error("arena carvings overlap")
	}
	s.ResetFloats()
	f3 := s.Floats(16)
	if &f3[0] != &f1[0] {
		t.Error("ResetFloats did not reclaim the arena")
	}
	if f3[0] != 0 {
		t.Error("Floats must return zeroed memory")
	}
	pool.Put(s)
	if again := pool.Get(); again != s {
		// sync.Pool gives no hard guarantee, but single-goroutine
		// put-then-get returning a different object would break the
		// steady-state reuse the layer exists for.
		t.Log("pool returned a different scratch (allowed, but unexpected in-test)")
	}
}

func TestScratchArenaGrowKeepsOldCarvings(t *testing.T) {
	s := NewScratchPool().Get()
	s.ResetFloats()
	f1 := s.Floats(8)
	f1[7] = 3.5
	_ = s.Floats(1 << 16) // forces a regrow
	if f1[7] != 3.5 {
		t.Fatal("regrow invalidated an existing carving")
	}
}

func TestScratchNilAndUnpooled(t *testing.T) {
	var s *Scratch
	if got := s.Ints(4); len(got) != 4 {
		t.Fatal("nil scratch Ints")
	}
	s.PutInts(nil)
	if got := s.Int32s(4); len(got) != 4 {
		t.Fatal("nil scratch Int32s")
	}
	if got := s.Floats(4); len(got) != 4 {
		t.Fatal("nil scratch Floats")
	}
	s.ResetFloats()

	var pool *ScratchPool
	if pool.Get() != nil {
		t.Fatal("nil pool must lease nil scratches")
	}
	pool.Put(nil)

	up := NewUnpooledScratchPool().Get()
	a := up.Ints(16)
	up.PutInts(a)
	b := up.Ints(16)
	if &a[0] == &b[0] {
		t.Fatal("unpooled scratch must not reuse buffers")
	}
}
