package walcrash

import (
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/pagestore"
)

// recFS is a pagestore.FS over a real directory that also keeps what a
// power cut would leave of it: per file, the bytes its last fsync made
// durable and the writes and truncates since; per directory, the names
// its last directory sync made durable and the creates, renames, removes
// and mkdirs since. Every operation runs on the real directory too, so
// the process above it behaves as it does on the os file system.
type recFS struct {
	mu      sync.Mutex
	root    string
	live    map[string]*inode // path → file, as the process sees it
	durable map[string]*inode // path → file, as a power cut keeps it
	dirs    map[string]bool   // directories the process sees
	ddirs   map[string]bool   // directories a power cut keeps
	pending []dirOp           // namespace changes no directory sync has covered, in order
	inodes  []*inode          // every file, in creation order

	trace []string // one line per operation: kind, file class, size
	// grew lists the segment writes that started past the segment's
	// durable size: their fsync had to make the extend durable too.
	grew []string
	// before, if set, runs under mu before every operation, with the
	// operation's trace line.
	before func(op string)
}

// inode is one file: its durable bytes and the changes since.
type inode struct {
	durable []byte
	ops     []fileOp
}

// fileOp is a write of data at off, or, when trunc is set, a truncate
// to off.
type fileOp struct {
	off   int64
	data  []byte
	trunc bool
}

// dirOp is a namespace change: a create, rename (path → to), remove or
// mkdir in the directory of its target.
type dirOp struct {
	kind, path, to string
	ino            *inode
}

func (op dirOp) dir() string {
	if op.kind == "rename" {
		return filepath.Dir(op.to)
	}
	return filepath.Dir(op.path)
}

// newRecFS records over root, taking what root already holds as durable.
func newRecFS(root string) (*recFS, error) {
	r := &recFS{root: root, live: map[string]*inode{}, durable: map[string]*inode{},
		dirs: map[string]bool{root: true}, ddirs: map[string]bool{root: true}}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == root {
			return err
		}
		if d.IsDir() {
			r.dirs[path], r.ddirs[path] = true, true
			return nil
		}
		data, err := os.ReadFile(path)
		ino := &inode{durable: data}
		r.live[path], r.durable[path] = ino, ino
		r.inodes = append(r.inodes, ino)
		return err
	})
	return r, err
}

// content is ino's bytes after its first k pending changes, and half of
// the (k+1)th, a write, when torn is set.
func (ino *inode) content(k int, torn bool) []byte {
	b := slices.Clone(ino.durable)
	apply := func(op fileOp) {
		end := op.off + int64(len(op.data))
		if op.trunc {
			end = op.off
		}
		if int64(len(b)) < end {
			b = append(b, make([]byte, end-int64(len(b)))...)
		}
		if op.trunc {
			b = b[:end]
		}
		copy(b[op.off:], op.data)
	}
	for _, op := range ino.ops[:k] {
		apply(op)
	}
	if torn {
		op := ino.ops[k]
		op.data = op.data[:len(op.data)/2]
		apply(op)
	}
	return b
}

// do records one operation: its trace line, then the before hook.
// Caller holds mu.
func (r *recFS) do(kind, path string, size int) {
	line := kind + " " + pagestore.ClassOf(kind, path)
	if kind == "write" || kind == "truncate" {
		line += fmt.Sprintf(" %d", size)
	}
	r.trace = append(r.trace, line)
	if r.before != nil {
		r.before(line)
	}
}

// Trace returns the operations recorded so far.
func (r *recFS) Trace() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.trace)
}

func (r *recFS) OpenFile(name string, flag int, perm os.FileMode) (pagestore.File, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.do("open", name, 0)
	f, err := pagestore.OS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	ino := r.live[name]
	switch {
	case ino == nil:
		ino = &inode{}
		r.live[name] = ino
		r.inodes = append(r.inodes, ino)
		r.pending = append(r.pending, dirOp{kind: "create", path: name, ino: ino})
	case flag&os.O_TRUNC != 0:
		ino.ops = append(ino.ops, fileOp{trunc: true})
	}
	return &recFile{File: f, r: r, ino: ino, path: name}, nil
}

func (r *recFS) ReadFile(name string) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.do("read", name, 0)
	return os.ReadFile(name)
}

func (r *recFS) ReadDir(name string) ([]os.DirEntry, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.do("readdir", name, 0)
	return os.ReadDir(name)
}

func (r *recFS) Rename(oldpath, newpath string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.do("rename", newpath, 0)
	if err := os.Rename(oldpath, newpath); err != nil {
		return err
	}
	ino := r.live[oldpath]
	delete(r.live, oldpath)
	r.live[newpath] = ino
	r.pending = append(r.pending, dirOp{kind: "rename", path: oldpath, to: newpath, ino: ino})
	return nil
}

func (r *recFS) Remove(name string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.do("remove", name, 0)
	if err := os.Remove(name); err != nil {
		return err
	}
	delete(r.live, name)
	r.pending = append(r.pending, dirOp{kind: "remove", path: name})
	return nil
}

func (r *recFS) MkdirAll(path string, perm os.FileMode) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.do("mkdir", path, 0)
	var missing []string
	for p := path; !r.dirs[p]; p = filepath.Dir(p) {
		missing = append([]string{p}, missing...)
	}
	if err := os.MkdirAll(path, perm); err != nil {
		return err
	}
	for _, p := range missing {
		r.dirs[p] = true
		r.pending = append(r.pending, dirOp{kind: "mkdir", path: p})
	}
	return nil
}

func (r *recFS) SyncDir(dir string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.do("syncdir", dir, 0)
	if err := pagestore.OS.SyncDir(dir); err != nil {
		return err
	}
	kept := r.pending[:0]
	for _, op := range r.pending {
		if op.dir() == dir {
			applyDirOp(r.durable, r.ddirs, op)
		} else {
			kept = append(kept, op)
		}
	}
	r.pending = kept
	return nil
}

func applyDirOp(names map[string]*inode, dirs map[string]bool, op dirOp) {
	switch op.kind {
	case "create":
		names[op.path] = op.ino
	case "rename":
		delete(names, op.path)
		names[op.to] = op.ino
	case "remove":
		delete(names, op.path)
	case "mkdir":
		dirs[op.path] = true
	}
}

type recFile struct {
	pagestore.File
	r    *recFS
	ino  *inode
	path string
}

func (f *recFile) WriteAt(p []byte, off int64) (int, error) {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	f.r.do("write", f.path, len(p))
	if pagestore.ClassOf("write", f.path) == "segment" && off >= int64(len(f.ino.durable)) {
		f.r.grew = append(f.r.grew, fmt.Sprintf("%s at %d, durable size %d", filepath.Base(f.path), off, len(f.ino.durable)))
	}
	n, err := f.File.WriteAt(p, off)
	if n > 0 {
		f.ino.ops = append(f.ino.ops, fileOp{off: off, data: slices.Clone(p[:n])})
	}
	return n, err
}

func (f *recFile) Truncate(size int64) error {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	f.r.do("truncate", f.path, int(size))
	if err := f.File.Truncate(size); err != nil {
		return err
	}
	f.ino.ops = append(f.ino.ops, fileOp{off: size, trunc: true})
	return nil
}

func (f *recFile) Sync() error {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	f.r.do("sync", f.path, 0)
	if err := f.File.Sync(); err != nil {
		return err
	}
	f.ino.durable, f.ino.ops = f.ino.content(len(f.ino.ops), false), nil
	return nil
}

func (f *recFile) Close() error {
	f.r.mu.Lock()
	defer f.r.mu.Unlock()
	f.r.do("close", f.path, 0)
	return f.File.Close()
}

// crashImage is one state a power cut can leave: file contents and
// directories, by path relative to the recorded root.
type crashImage struct {
	files map[string][]byte
	dirs  []string
}

// key identifies the image's contents.
func (im crashImage) key() string {
	var b strings.Builder
	for _, d := range im.dirs {
		fmt.Fprintf(&b, "d %s\n", d)
	}
	names := make([]string, 0, len(im.files))
	for n := range im.files {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "f %s %x\n", n, sha256.Sum256(im.files[n]))
	}
	return b.String()
}

// materialize writes the image under dir.
func (im crashImage) materialize(dir string) error {
	for _, d := range im.dirs {
		if err := os.MkdirAll(filepath.Join(dir, d), 0o755); err != nil {
			return err
		}
	}
	for n, data := range im.files {
		if err := os.WriteFile(filepath.Join(dir, n), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// image builds the state that keeps the pending namespace changes keep
// marks, each file at the bytes pick gives it. Caller holds mu.
func (r *recFS) image(keep []bool, pick func(*inode) []byte) crashImage {
	names := make(map[string]*inode, len(r.durable))
	for p, ino := range r.durable {
		names[p] = ino
	}
	dirs := make(map[string]bool, len(r.ddirs))
	for d := range r.ddirs {
		dirs[d] = true
	}
	for i, op := range r.pending {
		if keep[i] {
			applyDirOp(names, dirs, op)
		}
	}
	// A name survives only under directories that survive.
	reachable := func(p string) bool {
		for d := filepath.Dir(p); d != r.root; d = filepath.Dir(d) {
			if !dirs[d] {
				return false
			}
		}
		return true
	}
	im := crashImage{files: map[string][]byte{}}
	for d := range dirs {
		if d != r.root && reachable(d) {
			rel, _ := filepath.Rel(r.root, d)
			im.dirs = append(im.dirs, rel)
		}
	}
	sort.Strings(im.dirs)
	for p, ino := range names {
		if reachable(p) {
			rel, _ := filepath.Rel(r.root, p)
			im.files[rel] = pick(ino)
		}
	}
	return im
}

// crashImages calls emit with the states a power cut now can leave: the
// durable names with a bounded set of subsets of the pending namespace
// changes, every file at its durable bytes or at all its writes; and,
// with none or all of those changes kept, each file with pending changes
// at each prefix of them, its last write torn too, the other files as
// before. Caller holds mu.
func (r *recFS) crashImages(emit func(crashImage)) {
	durable := func(ino *inode) []byte { return ino.durable }
	full := func(ino *inode) []byte { return ino.content(len(ino.ops), false) }
	subsets := keepSets(len(r.pending))
	for _, keep := range subsets {
		emit(r.image(keep, durable))
		emit(r.image(keep, full))
	}
	for i, base := range []func(*inode) []byte{durable, full} {
		keep := subsets[0] // none kept
		if i == 1 {
			keep = subsets[len(subsets)-1] // all kept
		}
		for _, ino := range r.inodes {
			for k := 0; k < len(ino.ops); k++ {
				for _, torn := range []bool{false, true} {
					if torn && ino.ops[k].trunc {
						continue
					}
					b := ino.content(k, torn)
					emit(r.image(keep, func(x *inode) []byte {
						if x == ino {
							return b
						}
						return base(x)
					}))
				}
			}
		}
	}
}

// keepSets picks which subsets of n pending namespace changes a state
// keeps: all of them up to five changes; past that each prefix, each
// change alone and all but each one. The first set keeps none, the last
// all.
func keepSets(n int) [][]bool {
	var sets [][]bool
	add := func(f func(i int) bool) {
		s := make([]bool, n)
		for i := range s {
			s[i] = f(i)
		}
		sets = append(sets, s)
	}
	if n <= 5 {
		for m := 0; m < 1<<n; m++ {
			add(func(i int) bool { return m&(1<<i) != 0 })
		}
		return sets
	}
	for j := 0; j < n; j++ {
		add(func(i int) bool { return i < j })
		add(func(i int) bool { return i == j })
		add(func(i int) bool { return i != j })
	}
	add(func(int) bool { return true })
	return sets
}
