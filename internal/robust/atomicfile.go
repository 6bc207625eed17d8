package robust

import (
	"os"
	"path/filepath"
)

// tempFile is the part of *os.File WriteFileAtomic uses; tests swap in
// one that fails at a chosen step.
type tempFile interface {
	Name() string
	Write(p []byte) (int, error)
	Chmod(mode os.FileMode) error
	Sync() error
	Close() error
}

// createTemp opens the writer's unique temp file beside the target.
var createTemp = func(dir, pattern string) (tempFile, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// WriteFileAtomic durably replaces path with data, the one write
// discipline of every persisted file (sweep checkpoints, job records,
// cache snapshots): create the parent directory, write a temp file
// unique to this writer, chmod 0644, fsync, close, rename it over path,
// then fsync the directory so the rename survives a crash. A reader sees
// the old file or the new one, never a mix; two concurrent writers each
// publish only bytes they wrote whole (last rename wins). On failure the
// temp file is removed and path is untouched. Errors are returned
// unwrapped so callers keep their own error text.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := createTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if err := writeSync(tmp, data); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	syncDir(dir)
	return nil
}

// writeSync writes data, sets the published mode and fsyncs before
// closing, so the bytes are on stable storage before the rename.
func writeSync(f tempFile, data []byte) error {
	_, err := f.Write(data)
	if err == nil {
		err = f.Chmod(0o644)
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so a just-renamed entry survives a crash.
// Filesystems that refuse directory fsync keep the pre-sync behavior.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	_ = d.Sync()
}
