package engine

import "math"

// The memo cache is keyed by a precomputed 64-bit hash of the
// (fingerprint, point) pair rather than the exact key bytes: hashing a
// point is a handful of integer mixes with zero allocation, where the
// old exact-bytes encoding built a fresh string per lookup. Hashes can
// collide, so every entry keeps its exact identity — the interned
// fingerprint ID and the point's float64 values — and a probe compares
// it bit-for-bit before reporting a hit; a collision is simply a miss
// (and, on insert, a replacement), never a wrong value.

// fnvOffset/fnvPrime are the FNV-1a constants used to seed a
// fingerprint's hash.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

// hashFP hashes a fingerprint string (FNV-1a). The result seeds
// hashPoint, so one evaluator's hash is computed once per stream, not
// per point.
func hashFP(fp string) uint64 {
	h := fnvOffset
	for i := 0; i < len(fp); i++ {
		h ^= uint64(fp[i])
		h *= fnvPrime
	}
	return h
}

// hashPoint folds a point's IEEE-754 bits into the fingerprint seed with
// a splitmix64-style avalanche per coordinate. Zero allocations.
func hashPoint(seed uint64, point []float64) uint64 {
	h := seed
	for _, v := range point {
		h ^= math.Float64bits(v)
		h *= 0x9e3779b97f4a7c15
		h ^= h >> 29
		h *= 0xbf58476d1ce4e5b9
		h ^= h >> 32
	}
	// Final mix so short points still spread over the table.
	h ^= uint64(len(point))
	h *= 0x94d049bb133111eb
	h ^= h >> 29
	return h
}

// pointsEqual compares two points bit-for-bit (so NaNs compare equal to
// themselves and −0 ≠ +0, exactly like the old byte encoding).
func pointsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// The memo table is flat: three slices of plain values, so the garbage
// collector never scans it and a probe chases no pointers.
//
//   - index is an open-addressed, linearly probed array of 8-byte
//     cells, each holding the top half of an entry's hash and its slab
//     position. A probe starts at the hash's top bits — hashPoint has
//     already mixed it, so the key is not hashed a second time — and a
//     miss usually ends at the first empty cell without touching an
//     entry. Deletion shifts the rest of the probe run back, so there are
//     no tombstones.
//   - slots is the entry slab. Every slot is resident; an insert at
//     capacity overwrites the eviction victim's slot in place.
//   - arena holds the coordinates: an entry's point is
//     arena[off : off+dims]. A victim's region is reused when the new
//     point fits, which is always the case for one evaluator's points.
//
// Eviction is CLOCK, the one-bit approximation of LRU: a hit sets the
// entry's reference bit, and at capacity the hand sweeps the slab,
// clearing set bits, until it reaches a clear one — the victim. A hit
// thus writes one byte instead of relinking a list.
//
// The slices grow with occupancy and stop at what capacity needs, so an
// engine that never fills its cache never pays for it.

// memoEntry is one memoized evaluation with its exact identity.
type memoEntry struct {
	hash uint64
	val  float64
	off  uint32 // the point is arena[off : off+dims]
	dims uint32
	fpID uint32
	ref  bool // CLOCK reference bit: set by a hit, cleared by the hand
}

// memoCell is one index cell: the top 32 bits of an entry's hash (the
// bits its home cell is taken from, so a cell knows its home) over the
// entry's slab position plus one. The zero cell is empty.
type memoCell uint64

func makeCell(hash uint64, slot int) memoCell {
	return memoCell(hash&^math.MaxUint32 | uint64(slot+1))
}

// slot returns the cell's slab position.
func (m memoCell) slot() int { return int(uint32(m)) - 1 }

// minIndexBits sizes a new table's index (16 cells).
const minIndexBits = 4

// lruCache is the memo table described above. It is not goroutine-safe;
// the engine serializes access under its mutex. Warm hits perform zero
// allocations.
type lruCache struct {
	capacity int
	index    []memoCell // power-of-two length, at most 3/4 full
	shift    uint       // 64 − log2(len(index)) ≥ 32: hash>>shift is a hash's home cell
	slots    []memoEntry
	arena    []float64
	garbage  int    // arena coordinates no entry owns
	hand     int    // CLOCK hand: the next slot examined for eviction
	sink     uint32 // keeps the prefetch loads from being optimized away
}

func newLRU(capacity int) *lruCache {
	// Slab positions are stored as uint32 (plus one), and no memory
	// could hold more entries anyway.
	capacity = min(max(capacity, 1), math.MaxInt32)
	return &lruCache{
		capacity: capacity,
		index:    make([]memoCell, 1<<minIndexBits),
		shift:    64 - minIndexBits,
	}
}

// find returns the index position holding hash, or the empty cell where
// its probe ended.
func (c *lruCache) find(hash uint64) (pos int, ok bool) {
	mask := len(c.index) - 1
	for pos = int(hash >> c.shift); ; pos = (pos + 1) & mask {
		switch cell := c.index[pos]; {
		case cell == 0:
			return pos, false
		case uint64(cell)>>32 == hash>>32 && c.slots[cell.slot()].hash == hash:
			return pos, true
		}
	}
}

// prefetch loads the home cells of hashes ahead of their probes. The
// loads are independent, so the core overlaps their cache misses; probing
// one point at a time between other work would pay each miss in turn.
func (c *lruCache) prefetch(hashes []uint64) {
	var s uint32
	for _, h := range hashes {
		s += uint32(c.index[h>>c.shift])
	}
	c.sink = s
}

// prefetchVictims loads the home cells of the next n entries from the
// hand onward, which the coming inserts at capacity evict unless they
// are referenced.
func (c *lruCache) prefetchVictims(n int) {
	var s uint32
	for k, i := 0, c.hand; k < n && k < len(c.slots); k++ {
		s += uint32(c.index[c.slots[i].hash>>c.shift])
		if i++; i == len(c.slots) {
			i = 0
		}
	}
	c.sink = s
}

// point returns e's coordinates, aliasing the arena.
func (c *lruCache) point(e *memoEntry) []float64 {
	return c.arena[e.off : e.off+e.dims : e.off+e.dims]
}

// get returns the cached value when the entry at hash matches the exact
// (fpID, point) identity, setting its reference bit. A hash hit with a
// different identity is a miss.
func (c *lruCache) get(hash uint64, fpID uint32, point []float64) (float64, bool) {
	pos, ok := c.find(hash)
	if !ok {
		return 0, false
	}
	e := &c.slots[c.index[pos].slot()]
	if e.fpID != fpID || !pointsEqual(c.point(e), point) {
		return 0, false
	}
	e.ref = true
	return e.val, true
}

// add inserts or refreshes an entry and reports whether another entry
// was evicted to make room. A hash collision with a different identity
// replaces the resident entry (the table holds one entry per hash); the
// exact-identity check in get keeps this safe.
func (c *lruCache) add(hash uint64, fpID uint32, point []float64, val float64) (evicted bool) {
	if uint64(len(c.arena))+uint64(len(point)) > math.MaxUint32 {
		// Arena offsets are 32-bit; a point that cannot be placed is
		// simply not memoized.
		return false
	}
	pos, ok := c.find(hash)
	if ok {
		e := &c.slots[c.index[pos].slot()]
		if e.fpID == fpID && pointsEqual(c.point(e), point) {
			e.ref = true
		} else {
			e.fpID, e.ref = fpID, false
			c.place(e, point)
		}
		e.val = val
		return false
	}
	var slot int
	if len(c.slots) < c.capacity {
		slot = len(c.slots)
		c.slots = append(grown(c.slots, 1, c.capacity), memoEntry{})
		if len(c.slots)*4 > len(c.index)*3 {
			c.growIndex()
			pos, _ = c.find(hash)
		}
	} else {
		slot = c.victim()
		c.unindex(slot)
		// The deletion may have shifted cells into this probe's run.
		pos, _ = c.find(hash)
		if c.hand = slot + 1; c.hand == len(c.slots) {
			c.hand = 0
		}
		evicted = true
	}
	e := &c.slots[slot]
	e.hash, e.val, e.fpID, e.ref = hash, val, fpID, false
	c.place(e, point)
	c.index[pos] = makeCell(hash, slot)
	return evicted
}

// addBatch is add for a whole freshly computed chunk, returning the
// number of evictions. skip, when non-nil, marks entries the caller does
// not own (in-flight hash collisions) that must stay out of the table.
func (c *lruCache) addBatch(hashes []uint64, fpID uint32, points [][]float64, vals []float64, skip []bool) (evicted uint64) {
	if len(c.slots) == c.capacity {
		c.prefetchVictims(len(hashes))
	}
	c.prefetch(hashes)
	for k, h := range hashes {
		if (skip == nil || !skip[k]) && c.add(h, fpID, points[k], vals[k]) {
			evicted++
		}
	}
	return evicted
}

// victim advances the CLOCK hand past referenced entries, clearing
// their bits, and returns the first unreferenced slot.
func (c *lruCache) victim() int {
	for {
		e := &c.slots[c.hand]
		if !e.ref {
			return c.hand
		}
		e.ref = false
		if c.hand++; c.hand == len(c.slots) {
			c.hand = 0
		}
	}
}

// unindex removes the cell of the entry at slot and shifts later cells
// of its probe run back into the hole, so every remaining probe still
// reaches its cell.
func (c *lruCache) unindex(slot int) {
	mask := len(c.index) - 1
	pos := int(c.slots[slot].hash >> c.shift)
	for c.index[pos].slot() != slot {
		pos = (pos + 1) & mask
	}
	for j := (pos + 1) & mask; c.index[j] != 0; j = (j + 1) & mask {
		// The cell at j may fill the hole when the hole lies on its
		// probe path: between its home cell and j, cyclically.
		if home := int(uint64(c.index[j]) >> c.shift); (j-home)&mask >= (j-pos)&mask {
			c.index[pos] = c.index[j]
			pos = j
		}
	}
	c.index[pos] = 0
}

// growIndex doubles the index and reinserts every cell.
func (c *lruCache) growIndex() {
	old := c.index
	c.index = make([]memoCell, 2*len(old))
	c.shift--
	mask := len(c.index) - 1
	for _, cell := range old {
		if cell == 0 {
			continue
		}
		pos := int(uint64(cell) >> c.shift)
		for c.index[pos] != 0 {
			pos = (pos + 1) & mask
		}
		c.index[pos] = cell
	}
}

// place stores point as e's coordinates: over e's own arena region when
// it fits, else at the arena's end, compacting the arena once more than
// half of it is unowned.
func (c *lruCache) place(e *memoEntry, point []float64) {
	n := uint32(len(point))
	if n <= e.dims {
		copy(c.arena[e.off:e.off+n], point)
		c.garbage += int(e.dims - n)
		e.dims = n
		return
	}
	// Size growth for a full table at the current mean dimensionality,
	// so a table of one evaluator's points ends with no slack.
	live := len(c.arena) - c.garbage + len(point) - int(e.dims)
	mean := (live + len(c.slots) - 1) / len(c.slots)
	c.garbage += int(e.dims)
	e.off, e.dims = uint32(len(c.arena)), n
	c.arena = append(grown(c.arena, len(point), mean*c.capacity), point...)
	if c.garbage > len(c.arena)/2 {
		c.compact()
	}
}

// compact rewrites the arena with only the entries' points, in slab
// order.
func (c *lruCache) compact() {
	arena := make([]float64, 0, len(c.arena)-c.garbage)
	for i := range c.slots {
		e := &c.slots[i]
		p := c.point(e)
		e.off = uint32(len(arena))
		arena = append(arena, p...)
	}
	c.arena, c.garbage = arena, 0
}

// grown returns s with room for k more elements. Capacity doubles but
// stops at limit when limit is enough, so a table that grows to its
// capacity carries no growth slack.
func grown[T any](s []T, k, limit int) []T {
	need := len(s) + k
	if need <= cap(s) {
		return s
	}
	n := max(2*cap(s), 16)
	if limit >= need {
		n = min(n, limit)
	}
	t := make([]T, len(s), max(n, need))
	copy(t, s)
	return t
}

// walk visits every entry coldest first: the unreferenced entries from
// the CLOCK hand onward — the order the hand would evict them in — then
// the referenced ones in the same order.
func (c *lruCache) walk(visit func(e *memoEntry, point []float64)) {
	for _, ref := range [2]bool{false, true} {
		for k := range c.slots {
			if e := &c.slots[(c.hand+k)%len(c.slots)]; e.ref == ref {
				visit(e, c.point(e))
			}
		}
	}
}

func (c *lruCache) len() int { return len(c.slots) }
