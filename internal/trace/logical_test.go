package trace

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// TestLogicalThreadsRoundTrip drives one full RPC through two
// runtimes' protocol state: the four SYNCs carry one logical thread at
// seq 0..3, and each extension decodes back to the record it travels
// with.
func TestLogicalThreadsRoundTrip(t *testing.T) {
	const caller, callee = 0xA1, 0xB2
	cl, sv := NewLogicalThreads(caller), NewLogicalThreads(callee)

	callSend, ext, ok := cl.Send(5, false)
	if !ok {
		t.Fatal("call-send on an unbound thread wrote nothing")
	}
	callRecv, ok := sv.Recv(9, ext, false)
	if !ok {
		t.Fatal("call-recv refused a well-formed extension")
	}
	replySend, ext2, ok := sv.Send(9, true)
	if !ok {
		t.Fatal("reply-send on the bound callee thread wrote nothing")
	}
	replyRecv, ok := cl.Recv(5, ext2, true)
	if !ok {
		t.Fatal("reply-recv refused a well-formed extension")
	}

	want := []Sync{
		{Point: SyncCallSend, RuntimeID: caller, LogicalThread: 1, Seq: 0},
		{Point: SyncCallRecv, RuntimeID: caller, LogicalThread: 1, Seq: 1},
		{Point: SyncReplySend, RuntimeID: caller, LogicalThread: 1, Seq: 2},
		{Point: SyncReplyRecv, RuntimeID: caller, LogicalThread: 1, Seq: 3},
	}
	if got := []Sync{callSend, callRecv, replySend, replyRecv}; !reflect.DeepEqual(got, want) {
		t.Errorf("SYNCs = %+v\nwant %+v", got, want)
	}
	for i, c := range []struct {
		ext []byte
		s   Sync
	}{{ext, callSend}, {ext2, replySend}} {
		if len(c.ext) != 16 || binary.LittleEndian.Uint64(c.ext) != c.s.RuntimeID ||
			binary.LittleEndian.Uint32(c.ext[8:]) != c.s.LogicalThread ||
			binary.LittleEndian.Uint32(c.ext[12:]) != c.s.Seq {
			t.Errorf("extension %d = %x, want (%#x, %d, %d)", i, c.ext, c.s.RuntimeID, c.s.LogicalThread, c.s.Seq)
		}
	}

	// A second call from the same thread continues its logical thread;
	// another thread starts a new one.
	if s, _, _ := cl.Send(5, false); s.LogicalThread != 1 || s.Seq != 4 {
		t.Errorf("second call on a bound thread = %+v, want logical thread 1 seq 4", s)
	}
	if s, _, _ := cl.Send(6, false); s.LogicalThread != 2 || s.Seq != 0 {
		t.Errorf("call on a fresh thread = %+v, want logical thread 2 seq 0", s)
	}
	cl.Drop(6)
	if s, _, _ := cl.Send(6, false); s.LogicalThread != 3 {
		t.Errorf("call after Drop = %+v, want a fresh logical thread 3", s)
	}

	// Partners are the origins of adopted logical threads: the callee
	// adopted the caller's, the caller only got its own back.
	if got := sv.Partners(); !reflect.DeepEqual(got, []uint64{caller}) {
		t.Errorf("callee partners = %x, want [%x]", got, caller)
	}
	if got := cl.Partners(); got != nil {
		t.Errorf("caller partners = %x, want none", got)
	}
}

func TestLogicalThreadsRefusals(t *testing.T) {
	l := NewLogicalThreads(1)
	if s, ext, ok := l.Send(3, true); ok || ext != nil || s != (Sync{}) {
		t.Errorf("reply on an unbound thread = %+v %x %v, want nothing", s, ext, ok)
	}
	for _, n := range []int{0, 15, 17} {
		if _, ok := l.Recv(3, make([]byte, n), false); ok {
			t.Errorf("%d-byte extension accepted", n)
		}
	}
	if _, ext, ok := l.Send(3, true); ok || ext != nil {
		t.Error("a refused extension bound the thread")
	}
	if got := l.Partners(); got != nil {
		t.Errorf("partners after refusals = %x, want none", got)
	}
}

func TestLogicalThreadsPartnersSorted(t *testing.T) {
	l := NewLogicalThreads(50)
	for i, id := range []uint64{90, 7, 50, 3000, 7, 12} {
		ext := binary.LittleEndian.AppendUint64(nil, id)
		ext = binary.LittleEndian.AppendUint64(ext, 0)
		if _, ok := l.Recv(i, ext, false); !ok {
			t.Fatal("well-formed extension refused")
		}
	}
	// The runtime's own ID (a call that came home) is not a partner.
	if got, want := l.Partners(), []uint64{7, 12, 90, 3000}; !reflect.DeepEqual(got, want) {
		t.Errorf("Partners() = %v, want %v", got, want)
	}
}
