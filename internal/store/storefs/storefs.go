// Package storefs is the I/O seam of the persistent result store: the small
// set of filesystem operations the store performs, behind an interface so
// that every durability claim the store makes can be forced by a
// fault-injecting implementation (internal/store/errfs) instead of being
// asserted by reading the code. The production implementation, OS, is a thin
// veneer over the os package.
//
// The interface is deliberately operation-shaped rather than file-shaped:
// the store only ever (a) reads a whole file, (b) writes a temporary file and
// renames it into place, (c) syncs, removes and stats files, and (d) lists
// and syncs its one directory. Fault injection hooks each of those
// operations by name.
//
//uopslint:deterministic
package storefs

import (
	"io"
	"io/fs"
	"os"
)

// File is a writable file handle as the store uses one: written
// sequentially, optionally synced, then closed and renamed into place.
type File interface {
	io.Writer
	// Name returns the file's path, as os.File.Name does.
	Name() string
	// Sync flushes the file's contents to stable storage (fsync).
	Sync() error
	Close() error
}

// FS is the set of filesystem operations the store performs. All paths are
// full paths (the store joins its root directory itself). Implementations
// must be safe for concurrent use.
type FS interface {
	// ReadFile reads a whole file, like os.ReadFile.
	ReadFile(path string) ([]byte, error)
	// ReadAt reads length bytes at offset of the named file. Short reads are
	// errors. The store itself reads whole files; ReadAt stays in the seam so
	// that FS wrappers built on it keep compiling.
	ReadAt(path string, offset, length int64) ([]byte, error)
	// CreateTemp creates a new temporary file in dir, like os.CreateTemp.
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically renames a file, like os.Rename.
	Rename(oldpath, newpath string) error
	// Remove removes a file, like os.Remove.
	Remove(path string) error
	// Stat stats a file, like os.Stat.
	Stat(path string) (fs.FileInfo, error)
	// ReadDir lists a directory, like os.ReadDir.
	ReadDir(dir string) ([]fs.DirEntry, error)
	// MkdirAll creates a directory tree, like os.MkdirAll.
	MkdirAll(dir string, perm fs.FileMode) error
	// SyncDir fsyncs a directory, making renames inside it durable.
	SyncDir(dir string) error
}

// OS is the production FS: the operations mapped 1:1 onto the os package.
type OS struct{}

func (OS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (OS) ReadAt(path string, offset, length int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	buf := make([]byte, length)
	if _, err := f.ReadAt(buf, offset); err != nil {
		return nil, err
	}
	return buf, nil
}

func (OS) CreateTemp(dir, pattern string) (File, error) {
	f, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }
func (OS) Remove(path string) error             { return os.Remove(path) }
func (OS) Stat(path string) (fs.FileInfo, error) {
	return os.Stat(path)
}
func (OS) ReadDir(dir string) ([]fs.DirEntry, error)   { return os.ReadDir(dir) }
func (OS) MkdirAll(dir string, perm fs.FileMode) error { return os.MkdirAll(dir, perm) }

// SyncDir opens the directory and fsyncs it: after a rename inside the
// directory, this is what makes the new directory entry itself durable.
func (OS) SyncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}
