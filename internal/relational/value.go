// Package relational implements the relational database engine that
// serves as the base data store underneath the XML views checked by
// U-Filter. It provides typed values, schemas with the full constraint
// vocabulary the paper relies on (primary keys, unique columns, NOT NULL,
// CHECK predicates and foreign keys with CASCADE / SET NULL / RESTRICT
// delete policies), hash indexes, MVCC snapshot isolation, and
// transactions with undo-log rollback.
//
// The engine runs in-memory by default. OpenWAL attaches a durable
// write-ahead log, and with it the engine makes this durability
// contract: a transaction whose Commit (or CommitGroup) returns nil has
// been appended to the log and fsynced BEFORE it became visible to any
// snapshot reader, so after a crash at any instant — process kill
// included — reopening the directory restores exactly the committed
// transactions: every acknowledged one, no torn one, all constraints
// intact. When the log cannot be made durable (append or fsync
// failure), the whole commit group rolls back unpublished and every
// member returns an error wrapping ErrWALFailed. Checkpoints bound log
// size and recovery time; recovery truncates torn tails and stops at
// the first corrupt frame. Every file operation goes through one seam
// (FileSystem, a pagestore.FS). The internal/walcrash harness proves the
// contract through it: it reopens every state a power cut could leave
// at any file operation of a recorded run (TestCrashStates) and diffs
// the recovered state against a shadow model; one test kills a real
// child process with SIGKILL and reopens its directory
// (TestCrashExternalKill).
//
// The engine substitutes for the Oracle 10g instance used in the paper's
// evaluation.
package relational

import (
	"fmt"
	"strconv"
	"strings"
)

// Type enumerates the column types supported by the engine. The running
// example and TPC-H subset only require strings, integers, floats and
// dates; dates are stored as integers (days or years) for simplicity.
type Type int

const (
	// TypeString is a variable-length character column (VARCHAR2).
	TypeString Type = iota
	// TypeInt is a 64-bit integer column.
	TypeInt
	// TypeFloat is a 64-bit floating point column (DOUBLE).
	TypeFloat
	// TypeDate is a date column, stored as an integer year or epoch day.
	TypeDate
)

// String returns the SQL-ish name of the type.
func (t Type) String() string {
	switch t {
	case TypeString:
		return "VARCHAR"
	case TypeInt:
		return "INTEGER"
	case TypeFloat:
		return "DOUBLE"
	case TypeDate:
		return "DATE"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// ValueKind discriminates the runtime kind carried by a Value.
type ValueKind int

const (
	// KindNull marks the SQL NULL value.
	KindNull ValueKind = iota
	// KindString marks a string value.
	KindString
	// KindInt marks an integer value.
	KindInt
	// KindFloat marks a floating point value.
	KindFloat
)

// Value is a single SQL value. The zero Value is NULL.
type Value struct {
	Kind  ValueKind
	Str   string
	Int   int64
	Float float64
}

// Null returns the SQL NULL value.
func Null() Value { return Value{Kind: KindNull} }

// String_ constructs a string Value. The trailing underscore avoids
// clashing with the fmt.Stringer method.
func String_(s string) Value { return Value{Kind: KindString, Str: s} }

// Int_ constructs an integer Value.
func Int_(i int64) Value { return Value{Kind: KindInt, Int: i} }

// Float_ constructs a floating point Value.
func Float_(f float64) Value { return Value{Kind: KindFloat, Float: f} }

// IsNull reports whether v is the SQL NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// String renders the value for display and for index keys. NULL renders
// as the literal "NULL"; strings render verbatim.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindString:
		return v.Str
	case KindInt:
		return strconv.FormatInt(v.Int, 10)
	case KindFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	default:
		return fmt.Sprintf("Value(kind=%d)", int(v.Kind))
	}
}

// EncodeKey renders the value into a form suitable for composite hash
// index keys. Unlike String, it is injective across kinds: numeric 1 and
// string "1" encode differently. Integral floats encode like ints so that
// cross-kind numeric equality (1 == 1.0) holds for index probes.
func (v Value) EncodeKey() string {
	var buf [32]byte
	return string(v.appendKey(buf[:0]))
}

// appendKey appends v's EncodeKey form to b. A composite index key is
// each component's form followed by a 0x01 terminator.
func (v Value) appendKey(b []byte) []byte {
	switch v.Kind {
	case KindNull:
		return append(b, "\x00N"...)
	case KindString:
		return append(append(b, "\x00S"...), v.Str...)
	case KindInt:
		return strconv.AppendInt(append(b, "\x00#"...), v.Int, 10)
	case KindFloat:
		if v.Float == float64(int64(v.Float)) {
			return strconv.AppendInt(append(b, "\x00#"...), int64(v.Float), 10)
		}
		return strconv.AppendFloat(append(b, "\x00#"...), v.Float, 'g', -1, 64)
	default:
		return append(b, "\x00?"...)
	}
}

// numeric returns the value as float64 when it is numeric.
func (v Value) numeric() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.Int), true
	case KindFloat:
		return v.Float, true
	default:
		return 0, false
	}
}

// Equal reports SQL equality between two values. NULL is not equal to
// anything, including NULL (three-valued logic collapses to false here).
func (v Value) Equal(o Value) bool {
	if v.IsNull() || o.IsNull() {
		return false
	}
	if a, ok := v.numeric(); ok {
		if b, ok2 := o.numeric(); ok2 {
			return a == b
		}
		return false
	}
	if v.Kind == KindString && o.Kind == KindString {
		return v.Str == o.Str
	}
	return false
}

// Compare orders two non-NULL values. It returns -1, 0 or +1, and an
// error when the values are not comparable (NULL involved, or string vs
// numeric).
func (v Value) Compare(o Value) (int, error) {
	if v.IsNull() || o.IsNull() {
		return 0, fmt.Errorf("relational: cannot compare NULL values")
	}
	if a, aok := v.numeric(); aok {
		b, bok := o.numeric()
		if !bok {
			return 0, fmt.Errorf("relational: cannot compare %s with %s", v, o)
		}
		switch {
		case a < b:
			return -1, nil
		case a > b:
			return 1, nil
		default:
			return 0, nil
		}
	}
	if v.Kind == KindString && o.Kind == KindString {
		return strings.Compare(v.Str, o.Str), nil
	}
	return 0, fmt.Errorf("relational: cannot compare %s with %s", v, o)
}

// CompareOp is a comparison operator usable in predicates and CHECK
// constraints.
type CompareOp int

const (
	// OpEQ is =.
	OpEQ CompareOp = iota
	// OpNE is <> (written != in XQuery).
	OpNE
	// OpLT is <.
	OpLT
	// OpLE is <=.
	OpLE
	// OpGT is >.
	OpGT
	// OpGE is >=.
	OpGE
)

// String renders the operator in SQL syntax.
func (op CompareOp) String() string {
	switch op {
	case OpEQ:
		return "="
	case OpNE:
		return "<>"
	case OpLT:
		return "<"
	case OpLE:
		return "<="
	case OpGT:
		return ">"
	case OpGE:
		return ">="
	default:
		return fmt.Sprintf("CompareOp(%d)", int(op))
	}
}

// Flip returns the operator with its operands swapped (a < b == b > a).
func (op CompareOp) Flip() CompareOp {
	switch op {
	case OpLT:
		return OpGT
	case OpLE:
		return OpGE
	case OpGT:
		return OpLT
	case OpGE:
		return OpLE
	default:
		return op
	}
}

// Apply evaluates "a op b" under SQL semantics. Comparisons involving
// NULL evaluate to false.
func (op CompareOp) Apply(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	switch op {
	case OpEQ:
		return a.Equal(b)
	case OpNE:
		return !a.Equal(b)
	default:
		c, err := a.Compare(b)
		if err != nil {
			return false
		}
		switch op {
		case OpLT:
			return c < 0
		case OpLE:
			return c <= 0
		case OpGT:
			return c > 0
		case OpGE:
			return c >= 0
		}
	}
	return false
}

// CoerceTo attempts to convert v to the given column type, mirroring the
// implicit casts a relational engine performs when binding literals from
// an XML update (where everything arrives as text).
func (v Value) CoerceTo(t Type) (Value, error) {
	if v.fits(t) {
		return v, nil
	}
	switch t {
	case TypeString:
		return String_(v.String()), nil
	case TypeInt, TypeDate:
		switch v.Kind {
		case KindFloat:
			if v.Float == float64(int64(v.Float)) {
				return Int_(int64(v.Float)), nil
			}
			return Value{}, fmt.Errorf("relational: %s is not an integer", v)
		case KindString:
			s := strings.TrimSpace(v.Str)
			i, err := strconv.ParseInt(s, 10, 64)
			if err != nil {
				return Value{}, fmt.Errorf("relational: %q is not a valid %s", v.Str, t)
			}
			return Int_(i), nil
		}
	case TypeFloat:
		switch v.Kind {
		case KindInt:
			return Float_(float64(v.Int)), nil
		case KindString:
			s := strings.TrimSpace(v.Str)
			f, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return Value{}, fmt.Errorf("relational: %q is not a valid DOUBLE", v.Str)
			}
			return Float_(f), nil
		}
	}
	return Value{}, fmt.Errorf("relational: cannot coerce %s to %s", v, t)
}

// fits reports whether v needs no conversion to type t: it is NULL, or
// already of t's kind.
func (v Value) fits(t Type) bool {
	switch v.Kind {
	case KindNull:
		return true
	case KindString:
		return t == TypeString
	case KindInt:
		return t == TypeInt || t == TypeDate
	case KindFloat:
		return t == TypeFloat
	}
	return false
}
