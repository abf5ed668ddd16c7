package rcache

import "testing"

func TestPages(t *testing.T) {
	cases := map[int]int{0: 0, -1: 0, 1: 1, PageSize: 1, PageSize + 1: 2, 6144: 2, 128 * 1024: 32}
	for size, want := range cases {
		if got := Pages(size); got != want {
			t.Errorf("Pages(%d) = %d, want %d", size, got, want)
		}
	}
}

func TestMissThenHit(t *testing.T) {
	c := New(64 * 1024)
	pages, hit := c.Acquire("/index.html", 6144)
	if hit || pages != 2 {
		t.Fatalf("first acquire: pages=%d hit=%v", pages, hit)
	}
	c.Release("/index.html")
	pages, hit = c.Acquire("/index.html", 6144)
	if !hit || pages != 2 {
		t.Fatalf("second acquire: pages=%d hit=%v", pages, hit)
	}
	c.Release("/index.html")
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Inserts != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if c.Len() != 1 || c.used != 6144 {
		t.Fatalf("len=%d used=%d", c.Len(), c.used)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New(3 * PageSize)
	for _, p := range []string{"/a", "/b", "/c"} {
		c.Acquire(p, PageSize)
		c.Release(p)
	}
	// Touch /a so /b becomes least recent.
	c.Acquire("/a", PageSize)
	c.Release("/a")
	// Inserting /d must evict exactly /b.
	c.Acquire("/d", PageSize)
	c.Release("/d")
	if c.Contains("/b") {
		t.Fatal("/b should have been evicted")
	}
	for _, p := range []string{"/a", "/c", "/d"} {
		if !c.Contains(p) {
			t.Fatalf("%s missing", p)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestPinnedEntriesAreNotEvicted(t *testing.T) {
	c := New(2 * PageSize)
	c.Acquire("/pinned", PageSize) // stays pinned: response in flight
	c.Acquire("/other", PageSize)
	c.Release("/other")

	// Capacity is full; only /other may be evicted.
	if _, hit := c.Acquire("/new", PageSize); hit {
		t.Fatal("unexpected hit")
	}
	if !c.Contains("/pinned") || c.Contains("/other") || !c.Contains("/new") {
		t.Fatalf("residency: pinned=%v other=%v new=%v",
			c.Contains("/pinned"), c.Contains("/other"), c.Contains("/new"))
	}

	// With everything pinned, a further insert is refused, not forced.
	if _, hit := c.Acquire("/blocked", PageSize); hit {
		t.Fatal("unexpected hit")
	}
	if c.Contains("/blocked") {
		t.Fatal("insert should have been refused while all entries are pinned")
	}
	if st := c.Stats(); st.Uncacheable != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// Draining the pins makes the space reclaimable again.
	c.Release("/pinned")
	c.Release("/new")
	if _, hit := c.Acquire("/blocked", PageSize); hit {
		t.Fatal("unexpected hit")
	}
	if !c.Contains("/blocked") {
		t.Fatal("insert should succeed after pins drain")
	}
}

func TestOversizedBodyStaysUncached(t *testing.T) {
	c := New(PageSize)
	for i := 0; i < 2; i++ {
		if _, hit := c.Acquire("/huge", 10*PageSize); hit {
			t.Fatalf("round %d: oversized body hit", i)
		}
		c.Release("/huge") // must be a no-op
	}
	if c.Len() != 0 || c.used != 0 {
		t.Fatalf("len=%d used=%d", c.Len(), c.used)
	}
	if st := c.Stats(); st.Uncacheable != 2 || st.Inserts != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConcurrentPinsOnOneEntry(t *testing.T) {
	c := New(4 * PageSize)
	c.Acquire("/doc", PageSize)
	c.Acquire("/doc", PageSize) // pipelined second response, same mapping
	c.Release("/doc")
	// One pin still holds: filling the cache may not evict /doc.
	c.Acquire("/a", PageSize)
	c.Release("/a")
	c.Acquire("/b", PageSize)
	c.Release("/b")
	c.Acquire("/c", PageSize)
	c.Release("/c")
	if _, hit := c.Acquire("/d", PageSize); hit {
		t.Fatal("unexpected hit")
	}
	c.Release("/d")
	if !c.Contains("/doc") {
		t.Fatal("/doc evicted while still pinned")
	}
	c.Release("/doc")
	// Over-releasing must not underflow the pin count.
	c.Release("/doc")
	c.Release("/doc")
}
