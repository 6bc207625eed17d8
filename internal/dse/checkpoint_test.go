package dse

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

// tinySpace returns a 2-point space for checkpoint tests.
func tinySpace(t testing.TB) Space {
	t.Helper()
	s, err := NewSpace(
		Param{Name: "x", Values: []float64{1, 2}},
	)
	if err != nil {
		t.Fatalf("space: %v", err)
	}
	return s
}

// TestSaveCheckpointDurable is the regression test for the fsync fix:
// the rename must be the last visible step — no temp file may survive a
// successful save — and the published file must load back exactly, both
// on first write and when overwriting an existing checkpoint (the
// crash-consistency property itself needs a power cut to observe; what
// the test pins is the write → sync → rename → dir-sync sequence
// completing and leaving only the final file).
func TestSaveCheckpointDurable(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	s := tinySpace(t)

	if err := SaveCheckpoint(path, s, []float64{3.5, 7.25}, []int{0, 1}); err != nil {
		t.Fatalf("save: %v", err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file survived the save: %v", err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(ck.Indices) != 2 || ck.Values[0] != 3.5 || ck.Values[1] != 7.25 {
		t.Fatalf("loaded %+v", ck)
	}

	// Overwrite: the second save replaces the first atomically.
	if err := SaveCheckpoint(path, s, []float64{9, 7.25}, []int{0}); err != nil {
		t.Fatalf("overwrite: %v", err)
	}
	ck, err = LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if len(ck.Indices) != 1 || ck.Indices[0] != 0 || ck.Values[0] != 9 {
		t.Fatalf("overwrite loaded %+v", ck)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file survived the overwrite: %v", err)
	}
}

// TestSaveCheckpointCreatesParentDir covers the nested-directory path of
// the durable save (MkdirAll before the synced write).
func TestSaveCheckpointCreatesParentDir(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a", "b", "ck.json")
	if err := SaveCheckpoint(path, tinySpace(t), []float64{1, 2}, []int{1}); err != nil {
		t.Fatalf("save into nested dir: %v", err)
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if len(ck.Indices) != 1 || ck.Indices[0] != 1 || ck.Values[0] != 2 {
		t.Fatalf("loaded %+v", ck)
	}
}

// TestSaveCheckpointReportsWriteErrors pins the error path: a target
// whose parent cannot be a directory must fail at the temp-file stage,
// not be swallowed by the sync sequence.
func TestSaveCheckpointReportsWriteErrors(t *testing.T) {
	dir := t.TempDir()
	blocker := filepath.Join(dir, "not-a-dir")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatalf("seed blocker file: %v", err)
	}
	path := filepath.Join(blocker, "ck.json")
	if err := SaveCheckpoint(path, tinySpace(t), []float64{1, 2}, []int{1}); err == nil {
		t.Fatalf("saving under a file-as-directory succeeded")
	}
}

// TestSaveCheckpointConcurrentSavers is the regression test for the
// temp-file collision: with a fixed "<path>.tmp" name, two concurrent
// savers could rename each other's half-written bytes into place. With
// unique temp files, every interleaving publishes some complete
// checkpoint, and no temp debris survives.
func TestSaveCheckpointConcurrentSavers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ck.json")
	s := tinySpace(t)

	const savers = 8
	const rounds = 20
	var wg sync.WaitGroup
	for i := 0; i < savers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Each saver writes its own recognizable payload.
			v := float64(i)
			for r := 0; r < rounds; r++ {
				if err := SaveCheckpoint(path, s, []float64{v, v}, []int{0, 1}); err != nil {
					t.Errorf("saver %d round %d: %v", i, r, err)
					return
				}
			}
		}(i)
	}
	wg.Wait()

	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("load after concurrent saves: %v", err)
	}
	if len(ck.Values) != 2 || ck.Values[0] != ck.Values[1] {
		t.Fatalf("torn checkpoint: %+v mixes two savers' payloads", ck)
	}
	if ck.Values[0] < 0 || ck.Values[0] >= savers {
		t.Fatalf("checkpoint value %v matches no saver", ck.Values[0])
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("readdir: %v", err)
	}
	for _, e := range entries {
		if e.Name() != "ck.json" {
			t.Fatalf("temp debris survived: %s", e.Name())
		}
	}
}

// FuzzLoadCheckpoint feeds LoadCheckpoint arbitrary bytes. It must never
// panic, a checkpoint it accepts carries one value per index, and an
// accepted checkpoint saved, loaded and saved again is byte-stable with
// its values intact bit for bit.
func FuzzLoadCheckpoint(f *testing.F) {
	s := tinySpace(f)
	seed := filepath.Join(f.TempDir(), "seed.json")
	if err := SaveCheckpoint(seed, s, []float64{math.Inf(1), -0.5}, []int{1, 0}); err != nil {
		f.Fatal(err)
	}
	blob, err := os.ReadFile(seed)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2])
	f.Add([]byte(`{"version":1,"signature":"0","indices":[0,1],"values":["1"]}`))
	f.Add([]byte(`{"version":1,"signature":"0","indices":[0,1,2],"values":["NaN","+Inf","-Inf"]}`))
	f.Add([]byte(`{"version":1,"signature":"0","indices":[0],"values":["1e400"]}`))
	f.Add([]byte(`{"version":1,"signature":"0","indices":[9223372036854775807,-1],"values":["1","2"]}`))
	f.Add([]byte(`{"version":1,"signature":"0","indices":[1e30],"values":["1"]}`))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		in := filepath.Join(dir, "in.json")
		if err := os.WriteFile(in, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCheckpoint(in)
		if err != nil {
			return
		}
		if len(ck.Values) != len(ck.Indices) {
			t.Fatalf("accepted checkpoint has %d values for %d indices", len(ck.Values), len(ck.Indices))
		}
		// The round trip re-saves over a value slab as large as the highest
		// index: negative indices (which a save refuses) and slabs too large
		// to build are outside it.
		slab := func(ck Checkpoint) []float64 {
			size := 0
			for _, idx := range ck.Indices {
				if idx < 0 || idx >= 1<<16 {
					return nil
				}
				size = max(size, idx+1)
			}
			values := make([]float64, size)
			for i, idx := range ck.Indices {
				values[idx] = ck.Values[i]
			}
			return values
		}
		values := slab(ck)
		if values == nil {
			return
		}
		save := func(name string, values []float64, indices []int) []byte {
			path := filepath.Join(dir, name)
			if err := SaveCheckpoint(path, s, values, indices); err != nil {
				t.Fatalf("saving an accepted checkpoint: %v", err)
			}
			out, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}
		first := save("first.json", values, ck.Indices)
		re, err := LoadCheckpoint(filepath.Join(dir, "first.json"))
		if err != nil {
			t.Fatalf("reloading a saved checkpoint: %v", err)
		}
		for i, idx := range re.Indices {
			got, want := re.Values[i], values[idx]
			if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("index %d: reloaded %v (%x), saved %v (%x)", idx, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		if second := save("second.json", slab(re), re.Indices); !bytes.Equal(first, second) {
			t.Fatalf("Save→Load→Save is not byte-stable:\n%s\n%s", first, second)
		}
	})
}
