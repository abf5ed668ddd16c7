// Package rcache models the mmap-backed response cache phhttpd built its
// design around: document bodies are mapped into the server's address space
// once and served from memory afterwards, so a cache hit costs a hash lookup
// while a miss pays open(2) plus a page-granular read to fault the mapping in.
//
// The cache itself is pure bookkeeping — the simulation never ships document
// bodies — so it stores only sizes and recency. The server charges the CPU
// cost asymmetry (CacheHit vs FileOpen + FileReadPage per page) based on what
// Acquire reports. Entries are reference-counted while a response that uses
// them is in flight: a mapping must stay pinned while write(2) or sendfile(2)
// is draining from it, so pinned entries are never evicted, exactly like a
// mapped region that cannot be munmapped mid-transfer.
package rcache

// PageSize is the granularity at which misses charge file reads and sendfile
// charges transfers: the 4 KB page of the era's hardware.
const PageSize = 4096

// Pages is the number of pages a body of size bytes occupies.
func Pages(size int) int {
	if size <= 0 {
		return 0
	}
	return (size + PageSize - 1) / PageSize
}

// Stats counts cache traffic.
type Stats struct {
	Hits      int64
	Misses    int64
	Inserts   int64
	Evictions int64
	// Uncacheable counts misses that could not be inserted: the body exceeds
	// the capacity, or every resident entry was pinned.
	Uncacheable int64
}

// entry is one cached document on an intrusive LRU list.
type entry struct {
	path       string
	size       int
	pins       int
	prev, next *entry
}

// Cache is a fixed-capacity LRU over document bodies. It is driven entirely
// from inside the owning process's simulation batches, so it needs no
// locking, and eviction order comes from the recency list, never from map
// iteration — determinism is preserved.
type Cache struct {
	capacity int
	used     int
	entries  map[string]*entry
	lru      entry // sentinel: lru.next is most recent, lru.prev least
	stats    Stats
}

// New builds a cache holding at most capacityBytes of document bodies.
func New(capacityBytes int) *Cache {
	c := &Cache{capacity: capacityBytes, entries: make(map[string]*entry)}
	c.lru.next, c.lru.prev = &c.lru, &c.lru
	return c
}

// Acquire looks path up, reporting whether it was resident (hit) and how many
// pages its body spans. On a hit the entry moves to the most-recent position;
// on a miss the entry is inserted (evicting least-recently-used unpinned
// entries as needed) so the next request hits. Either way the entry is pinned
// until the caller's Release: the response about to be written transfers from
// the mapping. A body that cannot be made resident (larger than the capacity,
// or eviction blocked by pins) stays uncached and Release becomes a no-op.
func (c *Cache) Acquire(path string, size int) (pages int, hit bool) {
	pages = Pages(size)
	if e, ok := c.entries[path]; ok {
		c.stats.Hits++
		e.pins++
		c.moveFront(e)
		return pages, true
	}
	c.stats.Misses++
	if size > c.capacity || !c.evictDownTo(c.capacity-size) {
		c.stats.Uncacheable++
		return pages, false
	}
	e := &entry{path: path, size: size, pins: 1}
	c.entries[path] = e
	c.used += size
	c.pushFront(e)
	c.stats.Inserts++
	return pages, false
}

// Release unpins one acquisition of path. Entries become evictable again once
// every in-flight response using them has drained.
func (c *Cache) Release(path string) {
	if e, ok := c.entries[path]; ok && e.pins > 0 {
		e.pins--
	}
}

// evictDownTo removes least-recently-used unpinned entries until the resident
// total is at most target, reporting whether it succeeded. Pinned entries are
// skipped: their mappings are mid-transfer.
func (c *Cache) evictDownTo(target int) bool {
	for e := c.lru.prev; c.used > target && e != &c.lru; {
		victim := e
		e = e.prev
		if victim.pins > 0 {
			continue
		}
		c.unlink(victim)
		delete(c.entries, victim.path)
		c.used -= victim.size
		c.stats.Evictions++
	}
	return c.used <= target
}

// Contains reports whether path is resident (tests and the demo).
func (c *Cache) Contains(path string) bool { _, ok := c.entries[path]; return ok }

// Len reports the number of resident entries.
func (c *Cache) Len() int { return len(c.entries) }

// Stats returns the traffic counters.
func (c *Cache) Stats() Stats { return c.stats }

func (c *Cache) pushFront(e *entry) {
	e.prev, e.next = &c.lru, c.lru.next
	e.prev.next, e.next.prev = e, e
}

func (c *Cache) unlink(e *entry) {
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

func (c *Cache) moveFront(e *entry) {
	c.unlink(e)
	c.pushFront(e)
}
