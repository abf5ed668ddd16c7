package netsim

import (
	"testing"
	"unsafe"
)

// A held connection pins its pair for the whole run, and a close at scale
// keeps one delivery record per member in flight at once, so both layouts are
// pinned: the shared facts (network, id, RTT, lane) live once on the pair,
// neither endpoint stores a pointer to it, and a stream event carries no
// datagram fields.
func TestConnPairSize(t *testing.T) {
	if got := unsafe.Sizeof(connPair{}); got != 160 {
		t.Fatalf("unsafe.Sizeof(connPair{}) = %d, want 160", got)
	}
}

// Each endpoint finds its pair from its own address.
func TestEndpointsFindTheirPair(t *testing.T) {
	p := &connPair{}
	if p.c.pair() != p || p.sc.pair() != p || p.sc.Peer() != &p.c {
		t.Fatal("an endpoint did not find the pair it is a field of")
	}
}

func TestConnEvtSize(t *testing.T) {
	if got := unsafe.Sizeof(connEvt{}); got != 72 {
		t.Fatalf("unsafe.Sizeof(connEvt{}) = %d, want 72", got)
	}
}
