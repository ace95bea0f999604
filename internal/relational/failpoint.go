package relational

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"

	"repro/internal/pagestore"
)

// Failpoints are named crash/error-injection points in the durability
// paths (WAL append, fsync, rotation, checkpoint). They exist for the
// crash-recovery test harness: a child process enables a failpoint in
// crash mode, runs a workload, and dies with SIGKILL exactly at the
// chosen point; the parent then reopens the directory and asserts that
// precisely the committed prefix survived. In error mode the failpoint
// returns ErrInjectedFault instead of killing the process, which is how
// the fsync/write error propagation to group-commit followers is
// tested without leaving the process.
//
// Disabled failpoints cost one atomic load on the WAL path and nothing
// anywhere else. They are never enabled in production; activation is
// explicit (EnableFailpoint) or via the RELATIONAL_FAILPOINTS
// environment variable read by EnableFailpointsFromEnv, which the
// harness sets for its child processes.
const (
	// FpWALAppendBefore fires before a commit group's record is written
	// to the active segment: nothing of the group reaches disk.
	FpWALAppendBefore = "wal.append.before"
	// FpWALAppendPartial fires mid-write: only a prefix of the framed
	// record reaches the file (a torn write). In crash mode the process
	// dies with the frame half-written; in error mode the partial frame
	// is truncated away and the append fails cleanly.
	FpWALAppendPartial = "wal.append.partial"
	// FpWALFsyncBefore fires after the record is written but before it
	// is fsynced: the bytes may or may not survive a crash — recovery
	// must treat them as uncommitted either way until the fsync returns.
	FpWALFsyncBefore = "wal.fsync.before"
	// FpWALFsyncAfter fires after the fsync but before the commit
	// group's stamps are published: the group is durable but the crash
	// happens before any reader saw it. Recovery must replay it.
	FpWALFsyncAfter = "wal.fsync.after"
	// FpWALRotateSeal fires during segment rotation, before the sealed
	// segment's final fsync+close.
	FpWALRotateSeal = "wal.rotate.seal"
	// FpWALRotateOpen fires during segment rotation, after the new
	// active segment has been created.
	FpWALRotateOpen = "wal.rotate.open"
	// FpCheckpointWrite fires when a checkpoint is about to install its
	// rewritten pages into the page store, before anything of the pass is
	// durable: recovery must fall back to the previous page directory
	// plus the full segment chain.
	FpCheckpointWrite = "checkpoint.write"
	// FpCheckpointRename fires in a checkpoint's directory replace after
	// the new directory is durable in its tmp file but before the rename
	// installs it: recovery must still see the old directory, and the new
	// pages are orphaned.
	FpCheckpointRename = pagestore.FpRename
	// FpCheckpointTruncate fires after the checkpoint's directory is
	// durable but before the sealed WAL segments it supersedes are
	// deleted: recovery must load the new page directory and skip the
	// already-checkpointed records it will re-encounter in the old
	// segments.
	FpCheckpointTruncate = "checkpoint.truncate"
	// FpPipelineStampAfter fires in the pipelined commit path after a
	// group's sequences are assigned and its claim stamps are replaced,
	// but before the group's record is handed to the WAL writer stage:
	// the group is stamped in memory yet nothing reached disk, so
	// recovery must not contain it and error mode must undo the stamps.
	FpPipelineStampAfter = "pipeline.stamp.after"
	// FpPipelinePublishBefore fires in the WAL writer stage after a
	// group's record is durable (fsynced) but before its commitSeq
	// publish: the crash-mode window where recovery must replay a
	// durable-but-never-visible group, and the error-mode window where
	// the writer must roll the group (and any later groups in its batch)
	// back and truncate their records.
	FpPipelinePublishBefore = "pipeline.publish.before"
	// FpPagestoreWrite fires before each checkpoint page is written to
	// the heap file, before anything is durable: recovery must fall back
	// to the previous page directory (fresh heap slots are orphaned and
	// reclaimed as free).
	FpPagestoreWrite = pagestore.FpWrite
	// FpPagestoreDirectory fires after a checkpoint's pages are durable
	// in the heap but before the directory installing them is written:
	// recovery must not see the new pages at all.
	FpPagestoreDirectory = pagestore.FpDirectory
)

// ErrInjectedFault is the error an error-mode failpoint returns. The
// WAL paths wrap it in ErrWALFailed like any real I/O failure.
var ErrInjectedFault = fmt.Errorf("relational: injected fault")

const (
	fpOff int32 = iota
	fpError
	fpCrash
)

type failpointState struct {
	mode  atomic.Int32
	hitAt atomic.Int64 // fire on the Nth evaluation; 0 = every evaluation
	hits  atomic.Int64
}

// fpArmed counts enabled failpoints so the disabled fast path is one
// atomic load. The registry map itself is immutable after package init,
// which is what makes lock-free reads of it safe.
var fpArmed atomic.Int32

var failpoints = map[string]*failpointState{
	FpWALAppendBefore:       {},
	FpWALAppendPartial:      {},
	FpWALFsyncBefore:        {},
	FpWALFsyncAfter:         {},
	FpWALRotateSeal:         {},
	FpWALRotateOpen:         {},
	FpCheckpointWrite:       {},
	FpCheckpointRename:      {},
	FpCheckpointTruncate:    {},
	FpPipelineStampAfter:    {},
	FpPipelinePublishBefore: {},
	FpPagestoreWrite:        {},
	FpPagestoreDirectory:    {},
}

// FailpointNames returns every registered failpoint name, sorted. The
// crash harness iterates this list so new durability failpoints are
// covered automatically.
func FailpointNames() []string {
	out := make([]string, 0, len(failpoints))
	for n := range failpoints {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// EnableFailpoint arms one failpoint. The spec is "crash" or "error",
// optionally suffixed with "@N" (1-based) to fire on the Nth
// evaluation instead of every one: "wal.fsync.before=crash@3" kills
// the process at the third fsync attempt.
func EnableFailpoint(name, spec string) error {
	fp, ok := failpoints[name]
	if !ok {
		return fmt.Errorf("relational: unknown failpoint %q", name)
	}
	modeStr, at := spec, int64(0)
	if i := strings.IndexByte(spec, '@'); i >= 0 {
		modeStr = spec[:i]
		n, err := strconv.ParseInt(spec[i+1:], 10, 64)
		if err != nil || n < 1 {
			return fmt.Errorf("relational: failpoint %s: bad hit count in %q", name, spec)
		}
		at = n
	}
	var mode int32
	switch modeStr {
	case "crash":
		mode = fpCrash
	case "error":
		mode = fpError
	default:
		return fmt.Errorf("relational: failpoint %s: unknown mode %q (want crash or error)", name, modeStr)
	}
	fp.hits.Store(0)
	fp.hitAt.Store(at)
	if fp.mode.Swap(mode) == fpOff {
		fpArmed.Add(1)
	}
	return nil
}

// DisableFailpoint disarms one failpoint (idempotent).
func DisableFailpoint(name string) {
	if fp, ok := failpoints[name]; ok {
		if fp.mode.Swap(fpOff) != fpOff {
			fpArmed.Add(-1)
		}
	}
}

// DisableAllFailpoints disarms every failpoint.
func DisableAllFailpoints() {
	for n := range failpoints {
		DisableFailpoint(n)
	}
}

// EnableFailpointsFromEnv arms failpoints from the RELATIONAL_FAILPOINTS
// environment variable: a semicolon-separated list of name=spec pairs,
// e.g. "wal.fsync.before=crash@2;checkpoint.rename=crash". The crash
// harness sets it for the child processes it intends to kill.
func EnableFailpointsFromEnv() error {
	env := os.Getenv("RELATIONAL_FAILPOINTS")
	if env == "" {
		return nil
	}
	for _, pair := range strings.Split(env, ";") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		name, spec, ok := strings.Cut(pair, "=")
		if !ok {
			return fmt.Errorf("relational: RELATIONAL_FAILPOINTS entry %q is not name=spec", pair)
		}
		if err := EnableFailpoint(strings.TrimSpace(name), strings.TrimSpace(spec)); err != nil {
			return err
		}
	}
	return nil
}

// evalFailpoint is the hook the WAL paths call. It returns nil when the
// failpoint is disabled or its hit count has not been reached,
// ErrInjectedFault in error mode, and does not return at all in crash
// mode: the process kills itself with SIGKILL, exactly like an external
// kill -9 (no deferred functions, no flushes, no exit handlers).
func evalFailpoint(name string) error {
	if failpointFires(name) {
		return fireFailpoint(name)
	}
	return nil
}

// failpointFires consumes one evaluation of the failpoint and reports
// whether it fires now (armed, and its @N hit count — if any — is
// reached on this evaluation). The torn-write point calls it before
// writing the partial frame and fireFailpoint after, so the fault lands
// with the frame half-written.
func failpointFires(name string) bool {
	if fpArmed.Load() == 0 {
		return false
	}
	fp := failpoints[name]
	if fp.mode.Load() == fpOff {
		return false
	}
	n := fp.hits.Add(1)
	at := fp.hitAt.Load()
	return at == 0 || n == at
}

// fireFailpoint fires an armed failpoint: SIGKILL-self in crash mode,
// ErrInjectedFault in error mode. Callers have already established that
// the failpoint is due via failpointFires.
func fireFailpoint(name string) error {
	if failpoints[name].mode.Load() == fpCrash {
		_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
		select {} // unreachable: SIGKILL cannot be caught
	}
	return ErrInjectedFault
}
