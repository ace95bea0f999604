package relational

// Bulk loading turns a generator's row stream into ordinary, bounded
// traffic: multi-row transactions through every check, WAL record and
// fsync any write takes, and a checkpoint pass per window, so a durable
// engine pages the rows already loaded, drops their versions and folds
// their index entries into sorted runs while the stream continues: a
// load holds the runs, an id and a slot per row, and one window.
const (
	// LoadBatchRows is how many rows Load inserts per transaction.
	LoadBatchRows = 4000
	// LoadCheckpointRows is how many rows Load commits between
	// checkpoint passes.
	LoadCheckpointRows = 8000
)

// Inserter is what a dataset generator emits rows into, each row's
// values in its table's declared column order: a WriteTxn (*Txn, a
// shard group's transaction), or the batching sink Load hands its fill
// function. The sink encodes what it is given before it returns, so a
// generator may reuse one row buffer.
type Inserter interface {
	InsertRow(table string, row []Value) (RowID, error)
}

// LoadStats reports what one Load did: rows committed, and checkpoint
// passes run along the way (the final one included).
type LoadStats struct {
	Rows        int
	Checkpoints int
}

// Load runs fill against a sink that batches its inserts into
// transactions from begin, calling checkpoint after every
// LoadCheckpointRows committed rows and after the trailing batch. The
// first error rolls the open batch back and ends the load; batches
// committed before it stay committed.
func Load(begin func() WriteTxn, checkpoint func() error, fill func(Inserter) error) (LoadStats, error) {
	l := &loadSink{begin: begin, checkpoint: checkpoint}
	err := fill(l)
	if err == nil {
		err = l.commit()
	}
	if err == nil && l.sinceCheckpoint > 0 {
		err = l.pass()
	}
	if l.txn != nil {
		_ = l.txn.Rollback()
	}
	return l.stats, err
}

// Load streams fill's rows into the database (see the package-level
// Load); without a WAL the checkpoint passes are no-ops.
func (db *Database) Load(fill func(Inserter) error) (LoadStats, error) {
	return Load(db.BeginTxn, db.Checkpoint, fill)
}

type loadSink struct {
	begin      func() WriteTxn
	checkpoint func() error

	txn             WriteTxn // open batch, nil between batches
	pending         int      // rows inserted through txn
	sinceCheckpoint int      // rows committed since the last pass
	stats           LoadStats
}

func (l *loadSink) InsertRow(table string, row []Value) (RowID, error) {
	if l.txn == nil {
		l.txn = l.begin()
	}
	id, err := l.txn.InsertRow(table, row)
	if err != nil {
		return 0, err
	}
	if l.pending++; l.pending < LoadBatchRows {
		return id, nil
	}
	if err := l.commit(); err != nil {
		return 0, err
	}
	if l.sinceCheckpoint < LoadCheckpointRows {
		return id, nil
	}
	return id, l.pass()
}

// commit publishes the open batch, if any.
func (l *loadSink) commit() error {
	if l.txn == nil {
		return nil
	}
	txn := l.txn
	l.txn = nil
	if err := txn.Commit(); err != nil {
		return err
	}
	l.stats.Rows += l.pending
	l.sinceCheckpoint += l.pending
	l.pending = 0
	return nil
}

func (l *loadSink) pass() error {
	l.sinceCheckpoint = 0
	l.stats.Checkpoints++
	return l.checkpoint()
}
