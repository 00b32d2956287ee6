package database

import (
	"errors"
	"fmt"
)

// Errors returned by the engine.
var (
	// ErrNotFound reports a missing row or table.
	ErrNotFound = errors.New("database: not found")
	// ErrExists reports a duplicate primary key or table name.
	ErrExists = errors.New("database: already exists")
	// ErrType reports a value that does not match the column type.
	ErrType = errors.New("database: type mismatch")
	// ErrDone reports use of a transaction after its Atomically returned.
	ErrDone = errors.New("database: transaction finished")
)

// ColType is a column's declared type.
type ColType int

// Column types.
const (
	TypeString ColType = iota + 1
	TypeInt
	TypeFloat
	TypeBool
	TypeBytes
)

func (t ColType) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	case TypeBool:
		return "bool"
	case TypeBytes:
		return "bytes"
	default:
		return "invalid"
	}
}

// Column declares one field of a table.
type Column struct {
	Name string
	Type ColType
}

// Schema is an ordered column list; the first column of a table is not
// required to be the key — the key column is named at CreateTable.
type Schema []Column

// Row is a record keyed by column name. Values must match the schema:
// string, int64, float64, bool or []byte.
//
// Committed rows are immutable. Insert and Update buffer a private clone
// of the caller's row; at commit that one map becomes both the table's row
// and the WAL record's, and a replica applying the record keeps the same
// map, read-only, possibly from another goroutine. Nothing may write to a
// row after it is buffered: Get and Scan hand out clones, and rows read
// through WAL, WALRange or ReadWALPrefix must not be modified.
type Row map[string]any

// Clone returns a deep-enough copy (byte slices are copied).
func (r Row) Clone() Row {
	out := make(Row, len(r))
	for k, v := range r {
		if b, ok := v.([]byte); ok {
			out[k] = append([]byte(nil), b...)
			continue
		}
		out[k] = v
	}
	return out
}

// checkValue validates a value against a column type.
func checkValue(t ColType, v any) error {
	ok := false
	switch t {
	case TypeString:
		_, ok = v.(string)
	case TypeInt:
		_, ok = v.(int64)
	case TypeFloat:
		_, ok = v.(float64)
	case TypeBool:
		_, ok = v.(bool)
	case TypeBytes:
		_, ok = v.([]byte)
	}
	if !ok {
		return fmt.Errorf("%w: %T is not %s", ErrType, v, t)
	}
	return nil
}

// validate checks a full row against the schema (all columns present,
// correct types, no extras).
func (s Schema) validate(r Row) error {
	if len(r) != len(s) {
		return fmt.Errorf("%w: row has %d fields, schema has %d", ErrType, len(r), len(s))
	}
	for _, col := range s {
		v, ok := r[col.Name]
		if !ok {
			return fmt.Errorf("%w: missing column %q", ErrType, col.Name)
		}
		if err := checkValue(col.Type, v); err != nil {
			return fmt.Errorf("column %q: %w", col.Name, err)
		}
	}
	return nil
}
