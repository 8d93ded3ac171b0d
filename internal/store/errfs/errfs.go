// Package errfs is the fault-injecting storefs.FS used by the store's
// durability tests: it performs real I/O under a real directory, but can be
// told to fail the Nth matching operation with a chosen error, to tear a
// write at a byte offset (the write reports success but only a prefix
// reaches the disk — the state a crash leaves behind when the file was never
// synced), and to simulate a process/machine crash after which every
// operation fails until the filesystem is rebuilt ("rebooted") over the same
// directory.
//
// Every durability claim the store makes ships with a test that forces the
// corresponding failure through this package; nothing here is used outside
// tests.
//
//uopslint:deterministic
package errfs

import (
	"errors"
	"fmt"
	"io/fs"
	"strings"
	"sync"

	"uopsinfo/internal/store/storefs"
)

// Op names one storefs operation, for fault matching and op counting.
type Op string

// The operations faults can match. OpWrite matches individual Write calls on
// files created through CreateTemp; OpSync and OpClose likewise.
const (
	OpReadFile Op = "readfile"
	OpReadAt   Op = "readat"
	OpCreate   Op = "create"
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpClose    Op = "close"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpStat     Op = "stat"
	OpReadDir  Op = "readdir"
	OpSyncDir  Op = "syncdir"
)

// ErrInjected is the default error of a fired fault.
var ErrInjected = errors.New("errfs: injected fault")

// ErrCrashed is returned by every operation after a crash has been
// simulated, until the FS is rebuilt over the directory.
var ErrCrashed = errors.New("errfs: filesystem crashed")

// Fault describes one injected failure.
type Fault struct {
	// Op is the operation the fault fires on.
	Op Op
	// Path, if non-empty, restricts the fault to operations whose path (for
	// renames: either path) contains this substring.
	Path string
	// Countdown is how many matching operations succeed before the fault
	// fires: 0 or 1 fires on the next match, 2 on the second, and so on.
	Countdown int
	// Err is the error the fired fault returns; nil selects ErrInjected.
	Err error
	// Torn, on an OpWrite fault, makes the write report full success while
	// persisting only the first TearAt bytes of the call's data, none if
	// TearAt is 0; every later write to the same file is silently dropped.
	// This is the on-disk state a crash leaves when a file was written but
	// never synced. Torn faults return no error.
	Torn bool
	// TearAt is the number of bytes a Torn write keeps.
	TearAt int
	// Sticky keeps the fault armed after it fires (e.g. a disk that stays
	// full); otherwise a fault fires once and is disarmed.
	Sticky bool
	// Crash simulates a process/machine crash when the fault fires: the
	// fired operation and every operation after it fail with ErrCrashed
	// until the FS is rebuilt over the directory.
	Crash bool
}

// FS is a fault-injecting storefs.FS over a real directory.
type FS struct {
	real storefs.OS

	mu      sync.Mutex
	crashed bool
	faults  []*Fault
	counts  map[Op]int
	torn    map[string]*tornState // path → tear state of open torn files
}

type tornState struct {
	limit   int // total bytes allowed through
	written int // bytes already persisted
}

// New returns a fault-free FS performing real I/O. Rebuilding a new FS over
// the same directory is how tests "reboot" after a crash.
func New() *FS {
	return &FS{counts: make(map[Op]int), torn: make(map[string]*tornState)}
}

// Inject arms a fault.
func (f *FS) Inject(fault Fault) {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := fault
	if c.Countdown < 1 {
		c.Countdown = 1
	}
	f.faults = append(f.faults, &c)
}

// Crash simulates an immediate crash: every subsequent operation fails with
// ErrCrashed.
func (f *FS) Crash() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed = true
}

// Heal clears the crashed state and disarms every fault (the disk
// "recovered", e.g. space was freed after ENOSPC).
func (f *FS) Heal() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.crashed = false
	f.faults = nil
}

// Ops returns how many operations of the kind have been attempted.
func (f *FS) Ops(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.counts[op]
}

// check counts the operation, then reports the error to inject (nil for
// none). A torn write fault that fires records the tear of path, for
// faultFile.Write.
func (f *FS) check(op Op, path string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.counts[op]++
	if f.crashed {
		return ErrCrashed
	}
	for i, fault := range f.faults {
		if fault.Op != op {
			continue
		}
		if fault.Path != "" && !strings.Contains(path, fault.Path) {
			continue
		}
		fault.Countdown--
		if fault.Countdown > 0 {
			continue
		}
		if !fault.Sticky {
			f.faults = append(f.faults[:i], f.faults[i+1:]...)
		} else {
			fault.Countdown = 1
		}
		if fault.Crash {
			f.crashed = true
		}
		if fault.Torn {
			f.torn[path] = &tornState{limit: fault.TearAt}
			return nil
		}
		if fault.Err != nil {
			return fault.Err
		}
		return ErrInjected
	}
	return nil
}

func (f *FS) ReadFile(path string) ([]byte, error) {
	if err := f.check(OpReadFile, path); err != nil {
		return nil, err
	}
	return f.real.ReadFile(path)
}

func (f *FS) ReadAt(path string, offset, length int64) ([]byte, error) {
	if err := f.check(OpReadAt, path); err != nil {
		return nil, err
	}
	return f.real.ReadAt(path, offset, length)
}

func (f *FS) CreateTemp(dir, pattern string) (storefs.File, error) {
	if err := f.check(OpCreate, dir); err != nil {
		return nil, err
	}
	file, err := f.real.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, file: file}, nil
}

func (f *FS) Rename(oldpath, newpath string) error {
	if err := f.check(OpRename, oldpath+"\x00"+newpath); err != nil {
		return err
	}
	f.mu.Lock()
	// A torn temp file keeps its tear state under its final name, so the
	// renamed-in entry is the torn one.
	if ts, ok := f.torn[oldpath]; ok {
		delete(f.torn, oldpath)
		f.torn[newpath] = ts
	}
	f.mu.Unlock()
	return f.real.Rename(oldpath, newpath)
}

func (f *FS) Remove(path string) error {
	if err := f.check(OpRemove, path); err != nil {
		return err
	}
	return f.real.Remove(path)
}

func (f *FS) Stat(path string) (fs.FileInfo, error) {
	if err := f.check(OpStat, path); err != nil {
		return nil, err
	}
	return f.real.Stat(path)
}

func (f *FS) ReadDir(dir string) ([]fs.DirEntry, error) {
	if err := f.check(OpReadDir, dir); err != nil {
		return nil, err
	}
	return f.real.ReadDir(dir)
}

func (f *FS) MkdirAll(dir string, perm fs.FileMode) error {
	// Directory creation is not a faultable store operation (Open would just
	// fail before any durability claim applies), but a crash still stops it.
	f.mu.Lock()
	crashed := f.crashed
	f.mu.Unlock()
	if crashed {
		return ErrCrashed
	}
	return f.real.MkdirAll(dir, perm)
}

func (f *FS) SyncDir(dir string) error {
	if err := f.check(OpSyncDir, dir); err != nil {
		return err
	}
	return f.real.SyncDir(dir)
}

// faultFile intercepts Write/Sync/Close of a temp file, applying write
// faults (including torn writes) by the file's current path.
type faultFile struct {
	fs   *FS
	file storefs.File
}

func (w *faultFile) Name() string { return w.file.Name() }

func (w *faultFile) Write(p []byte) (int, error) {
	if err := w.fs.check(OpWrite, w.file.Name()); err != nil {
		return 0, err
	}
	w.fs.mu.Lock()
	ts := w.fs.torn[w.file.Name()]
	w.fs.mu.Unlock()
	if ts != nil {
		// Torn file: persist only what the tear allows, report full success.
		allow := min(max(ts.limit-ts.written, 0), len(p))
		if allow > 0 {
			if _, werr := w.file.Write(p[:allow]); werr != nil {
				return 0, werr
			}
			w.fs.mu.Lock()
			ts.written += allow
			w.fs.mu.Unlock()
		}
		return len(p), nil
	}
	return w.file.Write(p)
}

func (w *faultFile) Sync() error {
	if err := w.fs.check(OpSync, w.file.Name()); err != nil {
		return err
	}
	return w.file.Sync()
}

func (w *faultFile) Close() error {
	if err := w.fs.check(OpClose, w.file.Name()); err != nil {
		w.file.Close()
		return err
	}
	return w.file.Close()
}

// String renders the armed faults, for test diagnostics.
func (f *FS) String() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return "errfs[crashed]"
	}
	return fmt.Sprintf("errfs[%d faults armed]", len(f.faults))
}
