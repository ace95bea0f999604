package pagestore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// FS is the one seam every file operation of the durable stack goes
// through: the page store's heap and directory, the log's segments and
// its data-dir stamp, the server's seed marker. OS is the production
// implementation; tests put a FaultFS, or a file system that records
// what a power cut could leave, in its place.
type FS interface {
	OpenFile(name string, flag int, perm os.FileMode) (File, error)
	ReadFile(name string) ([]byte, error)
	ReadDir(name string) ([]os.DirEntry, error)
	Rename(oldpath, newpath string) error
	Remove(name string) error
	MkdirAll(path string, perm os.FileMode) error
	// SyncDir makes the creates, renames and removes in dir durable.
	SyncDir(dir string) error
}

// File is an open file of an FS. Writes name their offset: no caller
// depends on a file position.
type File interface {
	ReadAt(p []byte, off int64) (int, error)
	WriteAt(p []byte, off int64) (int, error)
	Truncate(size int64) error
	Sync() error
	Stat() (os.FileInfo, error)
	Close() error
}

// OS is the os package as an FS. It counts and checks nothing.
var OS FS = osFS{}

type osFS struct{}

func (osFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	f, err := os.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return f, nil
}

func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error)   { return os.ReadDir(name) }
func (osFS) Rename(oldpath, newpath string) error         { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                     { return os.Remove(name) }
func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// ReplaceFile makes data the contents of dir/name durably: it writes and
// fsyncs name+".tmp", renames the tmp over name and fsyncs dir. A crash
// leaves the old file or the new one, and perhaps the tmp.
func ReplaceFile(fs FS, dir, name string, data []byte) error {
	tmp := filepath.Join(dir, name+".tmp")
	f, err := fs.OpenFile(tmp, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o666)
	if err != nil {
		return err
	}
	_, err = f.WriteAt(data, 0)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, filepath.Join(dir, name))
	}
	if err == nil {
		err = fs.SyncDir(dir)
	}
	return err
}

// ClassOf names the class of file an operation of that kind on path
// touches: "dir" for directory operations, else "segment", "heap",
// "pagedir", "format" (a tmp file counts as the file it replaces) or
// "other". Fault specs and crash-state traces name files by class.
func ClassOf(kind, path string) string {
	if kind == "mkdir" || kind == "syncdir" || kind == "readdir" {
		return "dir"
	}
	switch base := strings.TrimSuffix(filepath.Base(path), ".tmp"); {
	case strings.HasSuffix(base, ".seg"):
		return "segment"
	case base == heapFileName:
		return "heap"
	case base == dirFileName:
		return "pagedir"
	case base == "FORMAT":
		return "format"
	}
	return "other"
}

// ErrInjectedFault is what an operation a FaultFS fails in error mode
// returns.
var ErrInjectedFault = errors.New("injected fault")

// FaultFS is an FS (OS when FS is nil) that makes the faults Arm names
// happen. Files it opens check the faults armed at the time of each
// operation, so a test may open a data dir first and arm later.
type FaultFS struct {
	FS FS

	mu    sync.Mutex
	rules []faultRule
}

type faultRule struct {
	kind, class, mode string
	at, hits          int // at 0 fires on every hit
}

var (
	faultKinds = map[string]bool{"open": true, "read": true, "readdir": true, "write": true, "sync": true,
		"truncate": true, "rename": true, "remove": true, "mkdir": true, "syncdir": true}
	faultClasses = map[string]bool{"": true, "dir": true, "segment": true, "heap": true, "pagedir": true, "format": true, "other": true}
	faultModes   = map[string]bool{"error": true, "crash": true, "crash-after": true, "tear": true}
)

// Arm replaces the armed faults with spec ("" disarms): rules separated
// by ";", each kind[:class]=mode[@N]. kind is a file operation (open,
// read, readdir, write, sync, truncate, rename, remove, mkdir, syncdir)
// or the dotted name of a point the engine fires (Point); class narrows
// a file operation to one class of file (ClassOf). The rule fires at its
// Nth matching operation after Arm, or at every one without "@N". The
// modes: error fails the operation, which has no effect; crash SIGKILLs
// the process before it, crash-after after it; tear writes the first
// half of a write's bytes, then SIGKILLs. "sync:segment=crash-after@3"
// dies right after the third fsync of a log segment.
func (f *FaultFS) Arm(spec string) error {
	var rules []faultRule
	for _, s := range strings.Split(spec, ";") {
		if s = strings.TrimSpace(s); s == "" {
			continue
		}
		op, mode, ok := strings.Cut(s, "=")
		kind, class, _ := strings.Cut(op, ":")
		r := faultRule{kind: kind, class: class, mode: mode}
		if m, at, found := strings.Cut(mode, "@"); found {
			n, err := strconv.Atoi(at)
			if err != nil || n < 1 {
				return fmt.Errorf("pagestore: fault %q: bad hit count", s)
			}
			r.mode, r.at = m, n
		}
		point := strings.Contains(kind, ".")
		if !ok || !(faultKinds[kind] || point && class == "") || !faultClasses[class] || !faultModes[r.mode] ||
			r.mode == "tear" && kind != "write" {
			return fmt.Errorf("pagestore: fault %q is not kind[:class]=mode[@N]", s)
		}
		rules = append(rules, r)
	}
	f.mu.Lock()
	f.rules = rules
	f.mu.Unlock()
	return nil
}

// fire counts one operation against every matching rule and returns the
// mode of the first that fires, or "".
func (f *FaultFS) fire(kind, class string) string {
	f.mu.Lock()
	defer f.mu.Unlock()
	fired := ""
	for i := range f.rules {
		r := &f.rules[i]
		if r.kind != kind || r.class != "" && r.class != class {
			continue
		}
		if r.hits++; (r.at == 0 || r.hits == r.at) && fired == "" {
			fired = r.mode
		}
	}
	return fired
}

// run performs op (torn, if the fault says so) under whatever fault
// fires for it.
func (f *FaultFS) run(kind, path string, op func(tear bool) error) error {
	mode := f.fire(kind, ClassOf(kind, path))
	switch mode {
	case "error":
		return fmt.Errorf("%w: %s %s", ErrInjectedFault, kind, path)
	case "crash":
		crash()
	}
	err := op(mode == "tear")
	if mode != "" {
		crash()
	}
	return err
}

// crash dies like an external kill -9: no deferred function, flush or
// exit handler runs.
func crash() {
	_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {}
}

// Point fires the point name: ErrInjectedFault in error mode, no return
// in a crash mode.
func (f *FaultFS) Point(name string) error {
	return f.run(name, "", func(bool) error { return nil })
}

func (f *FaultFS) inner() FS {
	if f.FS == nil {
		return OS
	}
	return f.FS
}

func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (File, error) {
	var file File
	err := f.run("open", name, func(bool) (err error) {
		file, err = f.inner().OpenFile(name, flag, perm)
		return err
	})
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f, name: name}, nil
}

func (f *FaultFS) ReadFile(name string) (data []byte, err error) {
	err = f.run("read", name, func(bool) error { data, err = f.inner().ReadFile(name); return err })
	return data, err
}

func (f *FaultFS) ReadDir(name string) (ents []os.DirEntry, err error) {
	err = f.run("readdir", name, func(bool) error { ents, err = f.inner().ReadDir(name); return err })
	return ents, err
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	return f.run("rename", newpath, func(bool) error { return f.inner().Rename(oldpath, newpath) })
}

func (f *FaultFS) Remove(name string) error {
	return f.run("remove", name, func(bool) error { return f.inner().Remove(name) })
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return f.run("mkdir", path, func(bool) error { return f.inner().MkdirAll(path, perm) })
}

func (f *FaultFS) SyncDir(dir string) error {
	return f.run("syncdir", dir, func(bool) error { return f.inner().SyncDir(dir) })
}

type faultFile struct {
	File
	fs   *FaultFS
	name string
}

func (f *faultFile) ReadAt(p []byte, off int64) (n int, err error) {
	err = f.fs.run("read", f.name, func(bool) error { n, err = f.File.ReadAt(p, off); return err })
	return n, err
}

func (f *faultFile) WriteAt(p []byte, off int64) (n int, err error) {
	err = f.fs.run("write", f.name, func(tear bool) error {
		if tear {
			p = p[:len(p)/2]
		}
		n, err = f.File.WriteAt(p, off)
		return err
	})
	return n, err
}

func (f *faultFile) Truncate(size int64) error {
	return f.fs.run("truncate", f.name, func(bool) error { return f.File.Truncate(size) })
}

func (f *faultFile) Sync() error {
	return f.fs.run("sync", f.name, func(bool) error { return f.File.Sync() })
}
