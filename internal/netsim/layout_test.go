package netsim

import (
	"testing"
	"unsafe"
)

// A held connection pins its pair for the whole run, and a close at scale
// keeps one delivery record per member in flight at once, so both layouts are
// pinned: the shared facts (network, id, RTT, lane) live once on the pair,
// and a stream event carries no datagram fields.
func TestConnPairSize(t *testing.T) {
	if got := unsafe.Sizeof(connPair{}); got != 176 {
		t.Fatalf("unsafe.Sizeof(connPair{}) = %d, want 176", got)
	}
}

func TestConnEvtSize(t *testing.T) {
	if got := unsafe.Sizeof(connEvt{}); got != 72 {
		t.Fatalf("unsafe.Sizeof(connEvt{}) = %d, want 72", got)
	}
}
