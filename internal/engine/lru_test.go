package engine

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"testing"
	"unsafe"
)

// memoID is one exact cache identity with the hash the table sees for
// it (real, or forced onto a shared value to make collisions common).
type memoID struct {
	hash  uint64
	fpID  uint32
	point []float64
}

func (m memoID) key() string {
	k := fmt.Sprint(m.fpID)
	for _, v := range m.point {
		k += fmt.Sprintf(",%x", math.Float64bits(v))
	}
	return k
}

// testRNG is splitmix64: a seeded, dependency-free stream.
type testRNG uint64

func (r *testRNG) intn(n int) int {
	*r += 0x9e3779b97f4a7c15
	z := uint64(*r)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int((z ^ z>>31) % uint64(n))
}

// memoIDs builds a pool of identities over several fingerprints and
// dimensionalities, with NaN, ±0 and ±Inf coordinates. Every third
// identity's hash is forced onto one of a few shared values, so 64-bit
// collisions between different identities are frequent.
func memoIDs(r *testRNG, n int) []memoID {
	coords := []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1, -2.5, 3}
	forced := []uint64{0, 0xdeadbeef, 1 << 63, math.MaxUint64}
	seen := map[string]bool{}
	var ids []memoID
	for len(ids) < n {
		id := memoID{fpID: uint32(1 + r.intn(3)), point: make([]float64, []int{0, 1, 2, 6}[r.intn(4)])}
		for d := range id.point {
			id.point[d] = coords[r.intn(len(coords))]
		}
		if seen[id.key()] {
			continue
		}
		seen[id.key()] = true
		id.hash = hashPoint(hashFP(fmt.Sprint("fp", id.fpID)), id.point)
		if len(ids)%3 == 0 {
			id.hash = forced[r.intn(len(forced))]
		}
		ids = append(ids, id)
	}
	return ids
}

// checkTable verifies the table's internal invariants and returns the
// identities it holds (by key) with their values.
func checkTable(t *testing.T, c *lruCache) map[string]float64 {
	t.Helper()
	if c.len() > c.capacity {
		t.Fatalf("len %d > capacity %d", c.len(), c.capacity)
	}
	held := map[string]float64{}
	hashes := map[uint64]bool{}
	coords := 0
	c.walk(func(e *memoEntry, point []float64) {
		if hashes[e.hash] {
			t.Fatalf("hash %#x held twice", e.hash)
		}
		hashes[e.hash] = true
		pos, ok := c.find(e.hash)
		if !ok || &c.slots[c.index[pos].slot()] != e {
			t.Fatalf("index does not lead to the entry of hash %#x", e.hash)
		}
		held[memoID{fpID: e.fpID, point: point}.key()] = e.val
		coords += len(point)
	})
	if len(held) != c.len() {
		t.Fatalf("walk visited %d entries, len is %d", len(held), c.len())
	}
	if coords+c.garbage != len(c.arena) {
		t.Fatalf("arena: %d owned + %d unowned != %d", coords, c.garbage, len(c.arena))
	}
	return held
}

// TestMemoTableDifferential drives the table with a seeded mix of get,
// add and addBatch against a plain map of the last value written per
// identity. A hit must return exactly that value, only for an identity
// the table holds, and never miss one it holds; the table never exceeds
// its capacity; and the evictions it reports equal the inserts of a new
// hash minus the entries resident at the end.
func TestMemoTableDifferential(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64} {
		t.Run(fmt.Sprint("cap", capacity), func(t *testing.T) {
			r := testRNG(uint64(capacity))
			ids := memoIDs(&r, 3*capacity+8)
			c := newLRU(capacity)
			latest := map[string]float64{}
			var inserts, evictions uint64
			held := checkTable(t, c)
			write := 0.0
			for step := 0; step < 4000; step++ {
				switch op := r.intn(10); {
				case op < 5: // get
					id := ids[r.intn(len(ids))]
					v, hit := c.get(id.hash, id.fpID, id.point)
					want, resident := held[id.key()]
					if hit != resident {
						t.Fatalf("step %d: get hit=%v for an identity resident=%v", step, hit, resident)
					}
					if hit && math.Float64bits(v) != math.Float64bits(latest[id.key()]) {
						t.Fatalf("step %d: hit returned %v, last written %v", step, v, latest[id.key()])
					}
					if hit && math.Float64bits(v) != math.Float64bits(want) {
						t.Fatalf("step %d: hit returned %v, entry holds %v", step, v, want)
					}
				case op < 8: // add
					id := ids[r.intn(len(ids))]
					write++
					if !hashHeld(c, id.hash) {
						inserts++
					}
					if c.add(id.hash, id.fpID, id.point, write) {
						evictions++
					}
					latest[id.key()] = write
				default: // addBatch over one fingerprint, some entries skipped
					size := 1 + r.intn(8)
					fpID := uint32(1 + r.intn(3))
					var hashes []uint64
					var points [][]float64
					var vals []float64
					skip := make([]bool, size)
					for len(hashes) < size {
						id := ids[r.intn(len(ids))]
						if id.fpID != fpID {
							continue
						}
						write++
						hashes, points, vals = append(hashes, id.hash), append(points, id.point), append(vals, write)
					}
					for k := range skip {
						skip[k] = r.intn(4) == 0
					}
					// The batch must act exactly as its unskipped adds one
					// by one; replaying them on a copy also counts the
					// inserts of a new hash.
					one := cloneTable(c)
					var oneEvictions uint64
					for k, h := range hashes {
						if skip[k] {
							continue
						}
						if !hashHeld(one, h) {
							inserts++
						}
						if one.add(h, fpID, points[k], vals[k]) {
							oneEvictions++
						}
					}
					n := c.addBatch(hashes, fpID, points, vals, skip)
					if n != oneEvictions || !sameTable(c, one) {
						t.Fatalf("step %d: addBatch (%d evictions) differs from its adds one by one (%d)", step, n, oneEvictions)
					}
					evictions += n
					for k := range hashes {
						if !skip[k] {
							latest[memoID{fpID: fpID, point: points[k]}.key()] = vals[k]
						}
					}
				}
				held = checkTable(t, c)
				for k, v := range held {
					if math.Float64bits(v) != math.Float64bits(latest[k]) {
						t.Fatalf("step %d: entry %s holds %v, last written %v", step, k, v, latest[k])
					}
				}
				if evictions != inserts-uint64(c.len()) {
					t.Fatalf("step %d: %d evictions reported, %d inserts of a new hash − %d resident", step, evictions, inserts, c.len())
				}
			}
		})
	}
}

// cloneTable deep-copies a table.
func cloneTable(c *lruCache) *lruCache {
	d := *c
	d.index = append([]memoCell(nil), c.index...)
	d.slots = append([]memoEntry(nil), c.slots...)
	d.arena = append([]float64(nil), c.arena...)
	return &d
}

// sameTable reports whether two tables hold bit-identical state.
func sameTable(a, b *lruCache) bool {
	if a.hand != b.hand || a.garbage != b.garbage || a.shift != b.shift ||
		!slices.Equal(a.index, b.index) || !slices.Equal(a.slots, b.slots) || len(a.arena) != len(b.arena) {
		return false
	}
	for i := range a.arena {
		if math.Float64bits(a.arena[i]) != math.Float64bits(b.arena[i]) {
			return false
		}
	}
	return true
}

// hashHeld reports whether some entry holds hash, without touching
// reference bits.
func hashHeld(c *lruCache, hash uint64) bool {
	_, ok := c.find(hash)
	return ok
}

// TestMemoTableHoldsNoPointers pins the point of the flat layout: the
// table's slices hold plain values, so the garbage collector never scans
// them.
func TestMemoTableHoldsNoPointers(t *testing.T) {
	var hasPointers func(reflect.Type) bool
	hasPointers = func(typ reflect.Type) bool {
		switch typ.Kind() {
		case reflect.Struct:
			for i := 0; i < typ.NumField(); i++ {
				if hasPointers(typ.Field(i).Type) {
					return true
				}
			}
			return false
		case reflect.Array:
			return hasPointers(typ.Elem())
		case reflect.Pointer, reflect.Slice, reflect.Map, reflect.Chan, reflect.Func,
			reflect.Interface, reflect.String, reflect.UnsafePointer:
			return true
		}
		return false
	}
	for _, field := range []string{"slots", "index", "arena"} {
		f, ok := reflect.TypeOf(lruCache{}).FieldByName(field)
		if !ok || f.Type.Kind() != reflect.Slice {
			t.Fatalf("lruCache.%s is not a slice", field)
		}
		if hasPointers(f.Type.Elem()) {
			t.Fatalf("lruCache.%s elements (%v) hold pointers", field, f.Type.Elem())
		}
	}
}

// TestMemoTableSecondChance: a referenced entry survives one sweep of
// the CLOCK hand (its bit is cleared instead), and is the victim of the
// next sweep unless it is hit again.
func TestMemoTableSecondChance(t *testing.T) {
	c := newLRU(4)
	pt := func(i int) []float64 { return []float64{float64(i)} }
	h := func(i int) uint64 { return hashPoint(1, pt(i)) }
	for i := 1; i <= 4; i++ {
		c.add(h(i), 1, pt(i), float64(i))
	}
	if _, ok := c.get(h(1), 1, pt(1)); !ok {
		t.Fatal("entry 1 missing")
	}
	// The hand passes 1 (clearing its bit) and evicts 2, then 3 and 4.
	for i := 5; i <= 7; i++ {
		if !c.add(h(i), 1, pt(i), float64(i)) {
			t.Fatalf("insert %d at capacity evicted nothing", i)
		}
		if !hashHeld(c, h(1)) {
			t.Fatalf("referenced entry 1 evicted by insert %d", i)
		}
	}
	for i := 2; i <= 4; i++ {
		if hashHeld(c, h(i)) {
			t.Fatalf("unreferenced entry %d survived", i)
		}
	}
	// 1's second chance is spent: the next insert evicts it.
	c.add(h(8), 1, pt(8), 8)
	if hashHeld(c, h(1)) {
		t.Fatal("entry 1 survived a second sweep without a hit")
	}
}

// TestMemoTableFootprint bounds the bytes a full table costs per entry
// of six coordinates (the paper space's points) at several capacities,
// and checks that a new table allocates nothing in proportion to its
// capacity.
func TestMemoTableFootprint(t *testing.T) {
	footprint := func(c *lruCache) int {
		return cap(c.slots)*int(unsafe.Sizeof(memoEntry{})) + cap(c.arena)*8 + len(c.index)*int(unsafe.Sizeof(memoCell(0)))
	}
	if c := newLRU(DefaultCacheSize); footprint(c) > 1024 {
		t.Fatalf("a new default-size table takes %d bytes up front", footprint(c))
	}
	for _, capacity := range []int{1000, 3<<16 + 1, DefaultCacheSize} {
		c := newLRU(capacity)
		for i := 0; i < capacity; i++ {
			p := []float64{float64(i), 1, 2, 3, 4, 5}
			c.add(hashPoint(7, p), 1, p, 0)
		}
		if c.len() != capacity {
			t.Fatalf("cap %d: holds %d entries", capacity, c.len())
		}
		if per := float64(footprint(c)) / float64(capacity); per > 130 {
			t.Fatalf("cap %d: %.1f bytes per entry, want ≤ 130", capacity, per)
		} else {
			t.Logf("cap %d: %.1f bytes per entry", capacity, per)
		}
	}
}
