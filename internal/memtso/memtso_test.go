package memtso_test

import (
	"testing"

	"repro/internal/memtso"
)

func TestBufferForwardingAndFlush(t *testing.T) {
	s := memtso.New(2, 2)
	s.Write(0, 1, 3)
	// Own-buffer forwarding: thread 0 sees its pending write, thread 1
	// does not.
	if got := s.Lookup(0, 1); got != 3 {
		t.Errorf("writer reads %d, want 3 (forwarded)", got)
	}
	if got := s.Lookup(1, 1); got != 0 {
		t.Errorf("other thread reads %d, want 0 (not yet flushed)", got)
	}
	if s.BufEmpty(0) || !s.BufEmpty(1) {
		t.Error("buffer emptiness wrong")
	}
	if !s.CanFlush(0) || s.CanFlush(1) {
		t.Error("CanFlush wrong")
	}
	s.Flush(0)
	if got := s.Lookup(1, 1); got != 3 {
		t.Errorf("after flush, other thread reads %d, want 3", got)
	}
	if s.CanFlush(0) {
		t.Error("flush should have drained the single entry")
	}
}

func TestFIFOOrder(t *testing.T) {
	s := memtso.New(1, 1)
	s.Write(0, 0, 1)
	s.Write(0, 0, 2)
	if got := s.Lookup(0, 0); got != 2 {
		t.Errorf("forwarding must return the newest buffered write, got %d", got)
	}
	s.Flush(0)
	if s.Mem[0] != 1 {
		t.Errorf("flush must commit the oldest write first, memory = %d", s.Mem[0])
	}
	s.Flush(0)
	if s.Mem[0] != 2 {
		t.Errorf("second flush: memory = %d", s.Mem[0])
	}
}

func TestRMWRequiresGlobalValue(t *testing.T) {
	s := memtso.New(1, 2)
	if !s.RMW(0, 0, 0, 2) || s.Mem[0] != 2 {
		t.Error("RMW with matching value should succeed")
	}
	if s.RMW(1, 0, 0, 3) {
		t.Error("RMW with stale expected value should fail")
	}
}

func TestCanWriteCap(t *testing.T) {
	s := memtso.New(1, 1)
	if !s.CanWrite(0, 2) {
		t.Error("empty buffer should accept writes")
	}
	s.Write(0, 0, 1)
	s.Write(0, 0, 1)
	if s.CanWrite(0, 2) {
		t.Error("full buffer should refuse writes at cap")
	}
}

func TestCloneAndEncode(t *testing.T) {
	s := memtso.New(2, 2)
	s.Write(0, 1, 2)
	c := s.Clone()
	c.Flush(0)
	if s.Mem[1] != 0 || c.Mem[1] != 2 {
		t.Error("clone is not independent")
	}
	if string(s.Encode(nil)) == string(c.Encode(nil)) {
		t.Error("distinct states encode equally")
	}
}

// TestDecodeRoundTrip checks Decode inverts Encode, decoding into a
// reused state whose buffers have other lengths.
func TestDecodeRoundTrip(t *testing.T) {
	into := memtso.New(2, 3)
	into.Write(2, 0, 1)
	s := memtso.New(2, 3)
	s.Write(0, 1, 2)
	s.Write(0, 0, 1)
	s.Write(1, 1, 1)
	s.Flush(1)
	for _, st := range []*memtso.State{s, memtso.New(2, 3)} {
		enc := st.Encode(nil)
		if n := into.Decode(enc); n != len(enc) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(enc))
		}
		if got := string(into.Encode(nil)); got != string(enc) {
			t.Fatalf("decoded state re-encodes differently")
		}
	}
}
