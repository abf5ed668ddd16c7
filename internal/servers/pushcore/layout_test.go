package pushcore

import (
	"testing"
	"unsafe"
)

// A member's server-side record is three words: the ServerConn is the
// descriptor's file, not a field of its own, and both counters are 32-bit.
func TestConnSize(t *testing.T) {
	if got := unsafe.Sizeof(conn{}); got != 24 {
		t.Fatalf("unsafe.Sizeof(conn{}) = %d, want 24", got)
	}
}
