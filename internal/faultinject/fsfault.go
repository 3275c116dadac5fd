package faultinject

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"nra/internal/vfs"
)

// FaultFS is an in-memory vfs.FS with a deterministic crash model, the
// filesystem counterpart of the executor hooks above and driven by the
// same census-then-strike protocol: run a save/commit sequence once
// unarmed to census its FS operations (OpCount), then re-run it once per
// operation with a crash armed there, reboot, and assert recovery.
//
// Crash model (deliberately adversarial, deterministically so):
//
//   - File content is durable only up to the last Sync; a reboot in
//     LoseUnsynced mode truncates every file back to its synced bytes.
//   - Create durably registers the file (empty); Close durably persists
//     nothing.
//   - Rename and Remove are atomic and immediately durable — the
//     simplification of a journalling filesystem that orders metadata;
//     SyncDir is therefore a no-op (but still a crash point).
//   - The crash-armed operation applies a partial effect before failing:
//     a write tears in half, a sync loses its durability, a rename or
//     remove completes (the crash "just before rename" case is the crash
//     at the operation preceding it). Every later operation fails fast,
//     like a process that lost its disk.
//
// After Reboot the filesystem is usable again and recovery code can be
// run against exactly what a real crash would have left behind.
type FaultFS struct {
	mu      sync.Mutex
	files   map[string]*memFile
	dirs    map[string]bool
	ops     int64
	crashAt int64 // 0 = disarmed
	crashed bool
}

type memFile struct {
	data   []byte // current (volatile) content
	synced []byte // content guaranteed to survive a LoseUnsynced reboot
}

// RebootMode selects what a simulated reboot preserves.
type RebootMode int

const (
	// LoseUnsynced models a power cut: unsynced bytes are gone.
	LoseUnsynced RebootMode = iota
	// KeepAll models a crash where the page cache happened to reach disk:
	// everything written survives. Recovery must work either way.
	KeepAll
)

// NewFaultFS returns an empty, disarmed in-memory filesystem.
func NewFaultFS() *FaultFS {
	return &FaultFS{files: make(map[string]*memFile), dirs: make(map[string]bool)}
}

// CrashAt arms a crash at the n-th operation (1-based).
func (f *FaultFS) CrashAt(n int64) *FaultFS { f.crashAt = n; return f }

// OpCount returns how many operations have run.
func (f *FaultFS) OpCount() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Crashed reports whether the armed crash has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crashed
}

// Reboot brings a crashed filesystem back: in LoseUnsynced mode every
// file reverts to its last-synced content; in KeepAll mode everything
// written survives. The crash trigger is disarmed.
func (f *FaultFS) Reboot(mode RebootMode) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if mode == LoseUnsynced {
		for _, mf := range f.files {
			mf.data = append([]byte(nil), mf.synced...)
		}
	} else {
		for _, mf := range f.files {
			mf.synced = append([]byte(nil), mf.data...)
		}
	}
	f.crashed = false
	f.crashAt = 0
}

// step accounts one operation and reports whether it is the crash
// victim. It returns an error when the filesystem is already dead.
func (f *FaultFS) step(kind, path string) (strike bool, err error) {
	if f.crashed {
		return false, fmt.Errorf("%w: filesystem crashed (%s %s)", ErrInjected, kind, path)
	}
	f.ops++
	if f.crashAt != 0 && f.ops == f.crashAt {
		f.crashed = true
		return true, nil
	}
	return false, nil
}

func (f *FaultFS) crashErr(kind, path string) error {
	return fmt.Errorf("%w: crash at %s #%d (%s)", ErrInjected, kind, f.ops, path)
}

// MkdirAll registers the directory. Directory creation is not a crash
// point: every interesting failure in the save protocol involves files.
func (f *FaultFS) MkdirAll(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return fmt.Errorf("%w: filesystem crashed (mkdir %s)", ErrInjected, dir)
	}
	f.dirs[filepath.Clean(dir)] = true
	return nil
}

// Create truncates or durably registers an empty file.
func (f *FaultFS) Create(name string) (vfs.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	strike, err := f.step("create", name)
	if err != nil {
		return nil, err
	}
	f.files[name] = &memFile{}
	if strike {
		return nil, f.crashErr("create", name)
	}
	return &faultFile{fs: f, path: name}, nil
}

// OpenAppend opens the file for appending, creating it if missing.
func (f *FaultFS) OpenAppend(name string) (vfs.File, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	strike, err := f.step("create", name)
	if err != nil {
		return nil, err
	}
	if _, ok := f.files[name]; !ok {
		f.files[name] = &memFile{}
	}
	if strike {
		return nil, f.crashErr("create", name)
	}
	return &faultFile{fs: f, path: name}, nil
}

// ReadFile returns the file's current content. Reads are not crash
// points, but a dead filesystem refuses them too.
func (f *FaultFS) ReadFile(name string) ([]byte, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, fmt.Errorf("%w: filesystem crashed (read %s)", ErrInjected, name)
	}
	mf, ok := f.files[filepath.Clean(name)]
	if !ok {
		return nil, &fs.PathError{Op: "open", Path: name, Err: fs.ErrNotExist}
	}
	return append([]byte(nil), mf.data...), nil
}

// Rename atomically and durably renames a file.
func (f *FaultFS) Rename(oldname, newname string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	oldname, newname = filepath.Clean(oldname), filepath.Clean(newname)
	strike, err := f.step("rename", newname)
	if err != nil {
		return err
	}
	mf, ok := f.files[oldname]
	if !ok {
		return &fs.PathError{Op: "rename", Path: oldname, Err: fs.ErrNotExist}
	}
	// Rename persists the file's current bytes under the new name: the
	// save protocol syncs before renaming, and modelling rename as also
	// ordering the data matches journalling filesystems' behaviour.
	mf.synced = append([]byte(nil), mf.data...)
	delete(f.files, oldname)
	f.files[newname] = mf
	if strike {
		return f.crashErr("rename", newname)
	}
	return nil
}

// Remove durably deletes a file; missing files are not an error.
func (f *FaultFS) Remove(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	name = filepath.Clean(name)
	strike, err := f.step("remove", name)
	if err != nil {
		return err
	}
	delete(f.files, name)
	if strike {
		return f.crashErr("remove", name)
	}
	return nil
}

// Exists reports whether the file currently exists.
func (f *FaultFS) Exists(name string) bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	_, ok := f.files[filepath.Clean(name)]
	return ok
}

// ReadDirNames lists the directory's file names, sorted.
func (f *FaultFS) ReadDirNames(dir string) ([]string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil, fmt.Errorf("%w: filesystem crashed (readdir %s)", ErrInjected, dir)
	}
	prefix := filepath.Clean(dir) + string(filepath.Separator)
	var names []string
	for p := range f.files {
		if strings.HasPrefix(p, prefix) && !strings.Contains(p[len(prefix):], string(filepath.Separator)) {
			names = append(names, p[len(prefix):])
		}
	}
	sort.Strings(names)
	return names, nil
}

// SyncDir is a crash point but otherwise a no-op: renames and removes
// are already durable in this model.
func (f *FaultFS) SyncDir(dir string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	strike, err := f.step("syncdir", dir)
	if err != nil {
		return err
	}
	if strike {
		return f.crashErr("syncdir", dir)
	}
	return nil
}

// faultFile is an open handle; all state lives in the FaultFS.
type faultFile struct {
	fs   *FaultFS
	path string
}

// Write appends p to the file. The crash victim applies only the first
// half of p — a torn write — before failing.
func (h *faultFile) Write(p []byte) (int, error) {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	strike, err := h.fs.step("write", h.path)
	if err != nil {
		return 0, err
	}
	mf, ok := h.fs.files[h.path]
	if !ok {
		return 0, &fs.PathError{Op: "write", Path: h.path, Err: fs.ErrNotExist}
	}
	if strike {
		mf.data = append(mf.data, p[:len(p)/2]...)
		return len(p) / 2, h.fs.crashErr("write", h.path)
	}
	mf.data = append(mf.data, p...)
	return len(p), nil
}

// Sync makes the file's current content durable.
func (h *faultFile) Sync() error {
	h.fs.mu.Lock()
	defer h.fs.mu.Unlock()
	strike, err := h.fs.step("sync", h.path)
	if err != nil {
		return err
	}
	if strike {
		return h.fs.crashErr("sync", h.path)
	}
	mf, ok := h.fs.files[h.path]
	if !ok {
		return &fs.PathError{Op: "sync", Path: h.path, Err: fs.ErrNotExist}
	}
	mf.synced = append([]byte(nil), mf.data...)
	return nil
}

// Close never persists anything (that is Sync's job) and is not a crash
// point: a failing close adds nothing the write and sync faults miss.
func (h *faultFile) Close() error { return nil }
