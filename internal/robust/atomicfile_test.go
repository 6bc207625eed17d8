package robust

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// failingFile is a real temp file whose named step fails; a failing
// Write first writes half the bytes, as a full disk would.
type failingFile struct {
	*os.File
	step string
}

var errStep = errors.New("injected file fault")

func (f failingFile) Write(p []byte) (int, error) {
	if f.step == "write" {
		n, _ := f.File.Write(p[:len(p)/2])
		return n, errStep
	}
	return f.File.Write(p)
}

func (f failingFile) Chmod(mode os.FileMode) error {
	if f.step == "chmod" {
		return errStep
	}
	return f.File.Chmod(mode)
}

func (f failingFile) Sync() error {
	if f.step == "sync" {
		return errStep
	}
	return f.File.Sync()
}

func (f failingFile) Close() error {
	err := f.File.Close()
	if f.step == "close" {
		return errStep
	}
	return err
}

// TestWriteFileAtomicFailureLeavesTargetIntact fails each step before
// the rename in turn: the error surfaces unwrapped, the previous file
// keeps its exact bytes, and no *.tmp-* file is left in the directory.
func TestWriteFileAtomicFailureLeavesTargetIntact(t *testing.T) {
	for _, step := range []string{"write", "chmod", "sync", "close"} {
		t.Run(step, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "state.json")
			old := []byte(`{"version":"old"}` + "\n")
			if err := WriteFileAtomic(path, old); err != nil {
				t.Fatalf("seed write: %v", err)
			}

			prev := createTemp
			createTemp = func(dir, pattern string) (tempFile, error) {
				f, err := os.CreateTemp(dir, pattern)
				if err != nil {
					return nil, err
				}
				return failingFile{File: f, step: step}, nil
			}
			defer func() { createTemp = prev }()

			if err := WriteFileAtomic(path, []byte(`{"version":"new, longer than the old one"}`)); !errors.Is(err, errStep) {
				t.Fatalf("failed %s returned %v, want the injected fault", step, err)
			}
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("reading target: %v", err)
			}
			if string(got) != string(old) {
				t.Fatalf("target changed to %q after a failed %s", got, step)
			}
			tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp-*"))
			if err != nil {
				t.Fatal(err)
			}
			if len(tmps) != 0 {
				t.Fatalf("temp files left behind: %v", tmps)
			}
		})
	}
}

// TestWriteFileAtomicPublishes covers the success path: a nested target
// directory is created, the file has mode 0644 and exactly the bytes
// written, and an overwrite replaces it whole.
func TestWriteFileAtomicPublishes(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a", "b", "state.json")
	for _, data := range []string{"first\n", "second, longer\n", "3\n"} {
		if err := WriteFileAtomic(path, []byte(data)); err != nil {
			t.Fatalf("write %q: %v", data, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != data {
			t.Fatalf("read %q, want %q", got, data)
		}
	}
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Mode().Perm() != 0o644 {
		t.Fatalf("mode %v, want 0644", info.Mode().Perm())
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only the target", len(entries))
	}
}
