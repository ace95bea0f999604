package shard

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"repro/internal/relational"
)

// A data directory in the earlier layout gave each shard its own
// segment chain (shard-<i>/wal-*.seg) and cross-shard commits a
// coordinator log at the root (xlog, then xlog-<n>). A cross-shard
// commit appended an xid-tagged record
//
//	'X', uvarint xid, then a 'G' group payload's body
//
// to every participant's chain without flushing it, and committed by
// flushing ONE coordinator record that carried those records byte for
// byte. A shard record therefore counts only if the coordinator log
// holds its xid (a prepared record it lacks was aborted), and what a
// power loss cut off a shard's unflushed tail survives in the
// coordinator's copy.
//
// New reads such a directory once, after the group's log has mapped the
// shards' pages: every shard replays its chain under that rule, then
// what the coordinator log holds past the chain's last sequence, then
// one checkpoint puts everything in pages. Only then are the old files
// deleted — the coordinator log last — so a crash mid-migration just
// repeats it (records a checkpoint covers replay as no-ops).

const xlogName = "xlog"

// legacyLogs is what the earlier layout left in a directory.
type legacyLogs struct {
	segs  [][]string // per shard, oldest first
	spare []string   // recycled segment files
	xlogs []string   // the coordinator log, oldest file first
}

// findLegacy lists the earlier layout's files under dir, nil when there
// are none.
func findLegacy(dir string, n int) (*legacyLogs, error) {
	l := &legacyLogs{segs: make([][]string, n)}
	var err error
	if l.xlogs, err = filepath.Glob(filepath.Join(dir, xlogName+"*")); err != nil { // sorted: "xlog", then zero-padded numbers
		return nil, err
	}
	if l.spare, err = filepath.Glob(filepath.Join(dir, "shard-*", "recycle-*.rseg")); err != nil {
		return nil, err
	}
	found := len(l.xlogs) > 0
	for i := range l.segs {
		if l.segs[i], err = filepath.Glob(filepath.Join(shardDir(dir, i), "wal-*.seg")); err != nil {
			return nil, err
		}
		found = found || len(l.segs[i]) > 0
	}
	if !found {
		return nil, nil
	}
	return l, nil
}

// migrate replays the old logs into the group's shards, checkpoints, and
// deletes them.
func (l *legacyLogs) migrate(db *DB, rec *Recovery) error {
	committed := make(map[uint64]bool)
	frames := make([][]xlogPart, db.n) // per shard, in log order
	for _, path := range l.xlogs {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		var bad error
		scanXlog(data, func(xid uint64, parts []xlogPart) {
			committed[xid] = true
			for _, p := range parts {
				if p.shard >= db.n {
					bad = fmt.Errorf("%s: xid %d names shard %d of %d", path, xid, p.shard, db.n)
					return
				}
				frames[p.shard] = append(frames[p.shard], p)
			}
		})
		if bad != nil {
			return bad
		}
	}
	for i, s := range db.shards {
		var err error
		replay := func(payload []byte) bool {
			if len(payload) > 0 && payload[0] == 'X' {
				xid, n := binary.Uvarint(payload[1:])
				if n <= 0 {
					return false
				}
				if !committed[xid] {
					return true // prepared, never committed: aborted
				}
				payload = append([]byte{'G'}, payload[1+n:]...)
			}
			err = s.ReplayGroup(payload, &rec.Shards[i])
			return err == nil
		}
		for _, path := range l.segs[i] {
			data, rerr := os.ReadFile(path)
			if rerr != nil {
				return rerr
			}
			if relational.ScanFrames(data, replay) < int64(len(data)) || err != nil {
				break // the rest was never acknowledged
			}
		}
		// Sequence order is log order on a shard, so a lost tail is
		// exactly the coordinator's frames past the last one replayed.
		last := s.Stats().CommitSeq
		for _, p := range frames[i] {
			if err == nil && p.seq > last {
				relational.ScanFrames(p.frame, replay)
			}
		}
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
		rec.Shards[i].CommitSeq = s.Stats().CommitSeq
	}
	if err := db.Checkpoint(); err != nil {
		return err
	}
	for _, files := range append(append(l.segs, l.spare), l.xlogs) {
		for _, path := range files {
			if err := os.Remove(path); err != nil && !errors.Is(err, os.ErrNotExist) {
				return err
			}
		}
	}
	for i := range db.shards {
		if err := relational.SyncDir(shardDir(db.dir, i)); err != nil {
			return err
		}
	}
	return relational.SyncDir(db.dir)
}

// xlogPart is what a coordinator record says of one participant.
type xlogPart struct {
	shard int
	seq   uint64 // the last sequence in frame
	frame []byte // the shard's framed record; aliases the payload
}

// decodeXlogRecord parses one coordinator record payload, appending its
// participants to parts. A payload starting with a zero byte is
//
//	0x00, uvarint xid, uvarint parts, parts × (uvarint shard, uvarint seq, uvarint len, frame)
//
// and any other is the bare uvarint xid (never zero) of the format in
// which shard logs flushed at prepare: it commits the xid and carries no
// frames. It is total — arbitrary bytes return ok false, never panic,
// and nothing is sized by a length they merely claim
// (FuzzXlogRecordDecode).
func decodeXlogRecord(payload []byte, parts []xlogPart) (xid uint64, _ []xlogPart, ok bool) {
	if len(payload) == 0 || payload[0] != 0 {
		xid, n := binary.Uvarint(payload)
		return xid, parts, n == len(payload) && xid != 0
	}
	b := payload[1:]
	ok = true
	next := func() uint64 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			ok = false
			return 0
		}
		b = b[n:]
		return v
	}
	xid = next()
	for count := next(); ok && count > 0; count-- {
		shard, seq, flen := next(), next(), next()
		if !ok || shard > math.MaxInt32 || flen > uint64(len(b)) {
			return 0, parts, false
		}
		parts = append(parts, xlogPart{shard: int(shard), seq: seq, frame: b[:flen:flen]})
		b = b[flen:]
	}
	return xid, parts, ok && xid != 0 && len(b) == 0
}

// scanXlog calls visit for every intact record of a coordinator file
// (parts is reused between calls) and returns where the valid prefix
// ends.
func scanXlog(data []byte, visit func(xid uint64, parts []xlogPart)) int64 {
	var parts []xlogPart
	return relational.ScanFrames(data, func(payload []byte) bool {
		xid, ps, ok := decodeXlogRecord(payload, parts[:0])
		if ok {
			visit(xid, ps)
		}
		parts = ps
		return ok
	})
}
