package relational

import (
	"errors"
	"fmt"
)

// Sentinel constraint-violation errors. The data-driven checking step of
// U-Filter (hybrid strategy) distinguishes the engine's error classes the
// same way a driver distinguishes Oracle error codes.
var (
	// ErrNotNull signals a NOT NULL constraint violation.
	ErrNotNull = errors.New("NOT NULL constraint violated")
	// ErrCheck signals a CHECK constraint violation.
	ErrCheck = errors.New("CHECK constraint violated")
	// ErrPrimaryKey signals a duplicate primary key.
	ErrPrimaryKey = errors.New("PRIMARY KEY constraint violated")
	// ErrUnique signals a duplicate value in a UNIQUE column.
	ErrUnique = errors.New("UNIQUE constraint violated")
	// ErrForeignKey signals a dangling foreign key reference on insert
	// or update.
	ErrForeignKey = errors.New("FOREIGN KEY constraint violated")
	// ErrRestrict signals a delete rejected by a RESTRICT policy.
	ErrRestrict = errors.New("delete restricted by referencing rows")
	// ErrNoSuchTable signals a reference to an undeclared table.
	ErrNoSuchTable = errors.New("no such table")
	// ErrNoSuchColumn signals a reference to an undeclared column.
	ErrNoSuchColumn = errors.New("no such column")
	// ErrNoSuchRow signals an operation on a missing row id.
	ErrNoSuchRow = errors.New("no such row")
	// ErrTypeMismatch signals a value that cannot be coerced to the
	// column type.
	ErrTypeMismatch = errors.New("type mismatch")
	// ErrWriteConflict signals a write-write conflict under
	// first-updater-wins: the row a transaction tried to write was
	// modified by a transaction that committed after this one's read
	// sequence, or is claimed by another in-flight transaction. The
	// losing transaction should roll back and retry; the plan layer
	// does so with capped backoff.
	ErrWriteConflict = errors.New("write-write conflict")
	// ErrWALFailed signals that a commit's write-ahead log append or
	// fsync failed: the transaction did not commit, and neither did any
	// other whose record shared the failed flush (each is rolled back,
	// so no acknowledged-but-not-durable state can exist, and each
	// committer receives this error). It is not a conflict: retrying
	// without fixing the underlying I/O problem will fail again, so the
	// plan layer surfaces it instead of retrying.
	ErrWALFailed = errors.New("write-ahead log write failed")
	// ErrDataDirFormat signals a data directory stamped with another
	// on-disk format number than this binary's, or holding files and no
	// stamp (a binary that predates the stamp wrote it). OpenLog refuses
	// it without touching it; nothing migrates it: delete it and reseed.
	ErrDataDirFormat = errors.New("data directory format mismatch")
)

// ConstraintError wraps one of the sentinel errors with table/column
// context, preserving errors.Is matching on the sentinel.
type ConstraintError struct {
	Kind   error
	Table  string
	Column string
	Detail string
}

// Error implements the error interface.
func (e *ConstraintError) Error() string {
	msg := fmt.Sprintf("%s: table %s", e.Kind.Error(), e.Table)
	if e.Column != "" {
		msg += ", column " + e.Column
	}
	if e.Detail != "" {
		msg += ": " + e.Detail
	}
	return msg
}

// Unwrap exposes the sentinel for errors.Is.
func (e *ConstraintError) Unwrap() error { return e.Kind }

func constraintErr(kind error, table, column, detail string) error {
	return &ConstraintError{Kind: kind, Table: table, Column: column, Detail: detail}
}

// IsConstraintViolation reports whether err is any constraint violation
// (the class of errors the hybrid strategy interprets as a data conflict).
func IsConstraintViolation(err error) bool {
	return errors.Is(err, ErrNotNull) ||
		errors.Is(err, ErrCheck) ||
		errors.Is(err, ErrPrimaryKey) ||
		errors.Is(err, ErrUnique) ||
		errors.Is(err, ErrForeignKey) ||
		errors.Is(err, ErrRestrict)
}
