package engine

import (
	"context"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// snapEval is a deterministic fingerprinted evaluator for snapshot tests.
type snapEval struct{ fp string }

func (s snapEval) Fingerprint() string { return s.fp }

func (s snapEval) EvaluateCtx(_ context.Context, p []float64) (float64, error) {
	v := 1.0
	for _, x := range p {
		v = v*3.7 + x
	}
	return v, nil
}

// fillEngine evaluates n distinct points so the cache holds them.
func fillEngine(t testing.TB, e *Engine, ev snapEval, n int) [][]float64 {
	t.Helper()
	points := make([][]float64, n)
	for i := range points {
		points[i] = []float64{float64(i), float64(i) * 0.5, 42}
	}
	err := e.EvaluateStream(context.Background(), ev, points, nil)
	if err != nil {
		t.Fatalf("EvaluateStream: %v", err)
	}
	return points
}

func TestSnapshotRoundTripByteIdentical(t *testing.T) {
	dir := t.TempDir()
	e := New(Options{Workers: 4, CacheSize: 1024})
	ev := snapEval{fp: "snap/a"}
	fillEngine(t, e, ev, 100)
	// A second fingerprint interleaved so the fp table has two entries.
	ev2 := snapEval{fp: "snap/b"}
	if _, err := e.Evaluate(context.Background(), ev2, []float64{math.Inf(1), math.Copysign(0, -1)}); err != nil {
		t.Fatalf("Evaluate: %v", err)
	}

	p1 := filepath.Join(dir, "a.snap")
	n, err := e.SaveSnapshot(p1)
	if err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	if n != 101 {
		t.Fatalf("saved %d entries, want 101", n)
	}

	e2 := New(Options{Workers: 4, CacheSize: 1024})
	m, err := e2.LoadSnapshot(p1)
	if err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if m != n {
		t.Fatalf("restored %d entries, want %d", m, n)
	}
	p2 := filepath.Join(dir, "b.snap")
	if _, err := e2.SaveSnapshot(p2); err != nil {
		t.Fatalf("re-SaveSnapshot: %v", err)
	}
	b1, err := os.ReadFile(p1)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(p2)
	if err != nil {
		t.Fatal(err)
	}
	if string(b1) != string(b2) {
		t.Fatalf("save → load → save is not byte-identical (%d vs %d bytes)", len(b1), len(b2))
	}
}

func TestSnapshotRestoreGives100PercentWarmHits(t *testing.T) {
	dir := t.TempDir()
	e := New(Options{Workers: 4, CacheSize: 1024})
	ev := snapEval{fp: "snap/warm"}
	points := fillEngine(t, e, ev, 64)
	path := filepath.Join(dir, "warm.snap")
	if _, err := e.SaveSnapshot(path); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}

	e2 := New(Options{Workers: 4, CacheSize: 1024})
	if _, err := e2.LoadSnapshot(path); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	hits := 0
	err := e2.EvaluateStream(context.Background(), ev, points, func(_ int, o Outcome) {
		if o.CacheHit {
			hits++
		}
	})
	if err != nil {
		t.Fatalf("EvaluateStream: %v", err)
	}
	if hits != len(points) {
		t.Fatalf("warm hits = %d of %d, want all", hits, len(points))
	}
	if got := e2.Stats().Evaluations; got != 0 {
		t.Fatalf("restored engine performed %d raw evaluations, want 0", got)
	}
}

func TestSnapshotTruncatedAndCorruptAreCleanErrors(t *testing.T) {
	dir := t.TempDir()
	e := New(Options{Workers: 2, CacheSize: 256})
	fillEngine(t, e, snapEval{fp: "snap/tc"}, 32)
	path := filepath.Join(dir, "tc.snap")
	if _, err := e.SaveSnapshot(path); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	cases := map[string][]byte{
		"empty":     {},
		"truncated": blob[:len(blob)/2],
		"one-short": blob[:len(blob)-1],
		"corrupt": func() []byte {
			b := append([]byte(nil), blob...)
			b[len(b)/2] ^= 0x40
			return b
		}(),
		"bad-magic": func() []byte {
			b := append([]byte(nil), blob...)
			b[0] = 'X'
			return b
		}(),
	}
	for name, data := range cases {
		p := filepath.Join(dir, name+".snap")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e2 := New(Options{Workers: 2, CacheSize: 256})
		n, err := e2.LoadSnapshot(p)
		if err == nil {
			t.Errorf("%s: LoadSnapshot succeeded, want error", name)
		}
		if n != 0 || e2.CacheLen() != 0 {
			t.Errorf("%s: partial restore (n=%d, cache=%d), want none", name, n, e2.CacheLen())
		}
	}
}

// TestSnapshotRejectsVersion1 loads a well-formed version-1 blob (valid
// checksum, old version byte) into a warm engine: the whole file must be
// rejected and the cache left exactly as it was. Version-1 files hold
// c2bound entries under a retired fingerprint that could never hit.
func TestSnapshotRejectsVersion1(t *testing.T) {
	dir := t.TempDir()
	src := New(Options{Workers: 2, CacheSize: 256})
	fillEngine(t, src, snapEval{fp: "snap/v1"}, 16)
	path := filepath.Join(dir, "v1.snap")
	if _, err := src.SaveSnapshot(path); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blob[7] = 1
	payload := blob[:len(blob)-8]
	blob = binary.LittleEndian.AppendUint64(payload, fnvSum(payload))
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}

	e := New(Options{Workers: 2, CacheSize: 256})
	warm := snapEval{fp: "snap/warm"}
	points := fillEngine(t, e, warm, 8)
	before := e.Stats()
	n, err := e.LoadSnapshot(path)
	if err == nil || !strings.Contains(err.Error(), "unsupported version") {
		t.Fatalf("LoadSnapshot(v1) = %d, %v; want an unsupported-version error", n, err)
	}
	if n != 0 || e.CacheLen() != len(points) {
		t.Fatalf("v1 load touched the cache: n=%d, cache=%d, want 0 and %d", n, e.CacheLen(), len(points))
	}
	hits := 0
	if err := e.EvaluateStream(context.Background(), warm, points, func(_ int, o Outcome) {
		if o.CacheHit {
			hits++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if hits != len(points) || e.Stats().Evaluations != before.Evaluations {
		t.Fatalf("warm entries lost after v1 load: %d/%d hits", hits, len(points))
	}
}

func TestSnapshotPreservesRecencyOrder(t *testing.T) {
	dir := t.TempDir()
	// Capacity 4: after restoring 8 entries the 4 most recent survive.
	e := New(Options{Workers: 1, CacheSize: 8})
	ev := snapEval{fp: "snap/lru"}
	points := fillEngine(t, e, ev, 8)
	path := filepath.Join(dir, "lru.snap")
	if _, err := e.SaveSnapshot(path); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	// Touch the first four points so they become the MRU half.
	for _, p := range points[:4] {
		if _, err := e.Evaluate(context.Background(), ev, p); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.SaveSnapshot(path); err != nil {
		t.Fatalf("SaveSnapshot: %v", err)
	}
	small := New(Options{Workers: 1, CacheSize: 4})
	if _, err := small.LoadSnapshot(path); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	if small.CacheLen() != 4 {
		t.Fatalf("cache holds %d entries, want 4", small.CacheLen())
	}
	hits := 0
	err := small.EvaluateStream(context.Background(), ev, points[:4], func(_ int, o Outcome) {
		if o.CacheHit {
			hits++
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if hits != 4 {
		t.Fatalf("MRU half warm hits = %d, want 4 (recency order lost)", hits)
	}
}

func TestSnapshotDisabledCache(t *testing.T) {
	e := New(Options{CacheSize: -1})
	if _, err := e.SaveSnapshot(filepath.Join(t.TempDir(), "x.snap")); err == nil {
		t.Fatal("SaveSnapshot with caching disabled succeeded, want error")
	}
}

func TestKeyHashMatchesCachePlacement(t *testing.T) {
	// KeyHash is the cluster ring's placement hook; it must equal the
	// engine's internal memo key bit for bit.
	fp := "snap/key"
	point := []float64{1, 2, math.Pi}
	if got, want := KeyHash(fp, point), hashPoint(hashFP(fp), point); got != want {
		t.Fatalf("KeyHash = %016x, internal key = %016x", got, want)
	}
}

// FuzzSnapshotLoad feeds arbitrary bytes through LoadSnapshot. A rejected
// file must leave the cache exactly as it was (same size, the seeded
// probe entry still a bit-identical hit); an accepted one must round-trip
// save → load → save byte for byte. With reseal set the trailer checksum
// is recomputed first, so mutations reach the parser behind it.
func FuzzSnapshotLoad(f *testing.F) {
	src := New(Options{Workers: 2, CacheSize: 64})
	fillEngine(f, src, snapEval{fp: "fuzz/a"}, 6)
	for _, p := range [][]float64{{math.NaN()}, {math.Copysign(0, -1), math.Inf(1)}, {}} {
		if _, err := src.Evaluate(context.Background(), snapEval{fp: "fuzz/b"}, p); err != nil {
			f.Fatal(err)
		}
	}
	path := filepath.Join(f.TempDir(), "seed.snap")
	if _, err := src.SaveSnapshot(path); err != nil {
		f.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob, false)
	f.Add(blob, true)
	f.Add(blob[:len(blob)/2], true)
	f.Add(blob[:16], true)
	f.Add([]byte{}, false)
	// Counts far beyond the blob must be refused before they size a make.
	huge := binary.LittleEndian.AppendUint32(snapshotMagic[:], math.MaxUint32)
	f.Add(append(huge, make([]byte, 8)...), true)
	huge = binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(snapshotMagic[:], 0), math.MaxUint32)
	f.Add(append(huge, make([]byte, 8)...), true)

	ctx := context.Background()
	probe, probePt := snapEval{fp: "fuzz/probe"}, []float64{1, 2, 3}
	f.Fuzz(func(t *testing.T, data []byte, reseal bool) {
		if reseal && len(data) >= 8 {
			payload := append([]byte(nil), data[:len(data)-8]...)
			data = binary.LittleEndian.AppendUint64(payload, fnvSum(payload))
		}
		dir := t.TempDir()
		in := filepath.Join(dir, "in.snap")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e := New(Options{Workers: 1, CacheSize: 64})
		want, err := e.Evaluate(ctx, probe, probePt)
		if err != nil {
			t.Fatal(err)
		}
		before := e.CacheLen()
		if _, err := e.LoadSnapshot(in); err != nil {
			if got := e.CacheLen(); got != before {
				t.Fatalf("rejected load (%v) changed the cache size %d → %d", err, before, got)
			}
			if o := e.Do(ctx, probe, probePt); !o.CacheHit || math.Float64bits(o.Value) != math.Float64bits(want) {
				t.Fatalf("rejected load (%v) lost the probe entry: %+v", err, o)
			}
			return
		}
		first := filepath.Join(dir, "first.snap")
		if _, err := e.SaveSnapshot(first); err != nil {
			t.Fatal(err)
		}
		e2 := New(Options{Workers: 1, CacheSize: 64})
		if _, err := e2.LoadSnapshot(first); err != nil {
			t.Fatalf("reloading a saved snapshot: %v", err)
		}
		second := filepath.Join(dir, "second.snap")
		if _, err := e2.SaveSnapshot(second); err != nil {
			t.Fatal(err)
		}
		b1, err1 := os.ReadFile(first)
		b2, err2 := os.ReadFile(second)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if string(b1) != string(b2) {
			t.Fatalf("save → load → save differs (%d vs %d bytes)", len(b1), len(b2))
		}
	})
}
