package database

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
)

// Disk persistence for the write-ahead log: committed transactions stream
// to an io.Writer as gob-encoded records, and a database rebuilds from the
// stream on restart: ReadWALPrefix decodes the image and ResetTo replays
// it. (Section 7's database server "produces and stores all the
// information"; storing it durably is table stakes.)

// walRecord is the on-disk framing of one committed transaction.
type walRecord struct {
	TxID uint64
	Ops  []walOp
}

// walOp flattens Op for gob (the Row's any-typed values are concrete
// string/int64/float64/bool/[]byte, all gob-encodable). Schema and PK
// carry OpCreate DDL records so a bare stream reconstructs tables.
type walOp struct {
	Kind   OpKind
	Table  string
	Key    any
	Row    Row
	Schema Schema
	PK     string
}

// WALWriter streams committed transactions to w as they commit. Attach at
// most one per database.
type WALWriter struct {
	enc *gob.Encoder
	db  *DB
	err error
}

// PersistTo attaches a WAL writer: every transaction that commits from now
// on is encoded to w before Commit returns (write-ahead durability).
// Existing WAL records are written out first, so attaching to a populated
// database checkpoints it.
func (db *DB) PersistTo(w io.Writer) (*WALWriter, error) {
	ww := &WALWriter{enc: gob.NewEncoder(w), db: db}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.walSink != nil {
		return nil, errors.New("database: WAL writer already attached")
	}
	for _, rec := range db.wal {
		if err := ww.write(rec); err != nil {
			return nil, err
		}
	}
	db.walSink = ww
	return ww, nil
}

// Err returns the first write error, if any. After an error the database
// keeps running but durability is lost; callers should treat it as fatal.
func (ww *WALWriter) Err() error { return ww.err }

// write encodes one record.
func (ww *WALWriter) write(rec LogRecord) error {
	if ww.err != nil {
		return ww.err
	}
	out := walRecord{TxID: rec.TxID, Ops: make([]walOp, len(rec.Ops))}
	for i, op := range rec.Ops {
		out.Ops[i] = walOp{Kind: op.Kind, Table: op.Table, Key: op.Key, Row: op.Row, Schema: op.Schema, PK: op.PK}
	}
	if err := ww.enc.Encode(&out); err != nil {
		ww.err = fmt.Errorf("database: wal write: %w", err)
		return ww.err
	}
	return nil
}

// decodeRecord converts the on-disk framing back to a LogRecord.
func decodeRecord(rec walRecord) LogRecord {
	lr := LogRecord{TxID: rec.TxID, Ops: make([]Op, len(rec.Ops))}
	for i, op := range rec.Ops {
		lr.Ops[i] = Op{Kind: op.Kind, Table: op.Table, Key: op.Key, Row: op.Row, Schema: op.Schema, PK: op.PK}
	}
	return lr
}

// ReadWALPrefix decodes a WAL byte image back into log records. A
// truncated tail (torn final record after a crash) is tolerated: complete
// records up to the corruption are returned along with ErrTruncatedWAL.
// It also reports the exact byte length of the valid prefix: the offset
// just past the last complete record. Truncating the file to that offset
// yields a stream a fresh WALWriter can NOT be appended to (gob streams
// are writer-scoped) but that decodes cleanly — the contract crash
// recovery needs to discard a torn tail once instead of re-tolerating it
// on every later open.
//
// The image is read through a bytes.Reader, which implements
// io.ByteReader, so gob consumes exactly the bytes each record occupies
// and the remaining length gives the precise cut. (Given a reader without
// ReadByte, gob wraps it in a bufio.Reader and over-reads.)
func ReadWALPrefix(data []byte) (recs []LogRecord, validLen int, err error) {
	r := bytes.NewReader(data)
	dec := gob.NewDecoder(r)
	for {
		var rec walRecord
		derr := dec.Decode(&rec)
		if derr == io.EOF {
			return recs, validLen, nil
		}
		if derr != nil {
			return recs, validLen, fmt.Errorf("%w: %v", ErrTruncatedWAL, derr)
		}
		recs = append(recs, decodeRecord(rec))
		validLen = len(data) - r.Len()
	}
}

// ErrTruncatedWAL reports a WAL stream that ends mid-record (a torn write
// from a crash); the records decoded before the tear are still valid.
var ErrTruncatedWAL = errors.New("database: truncated WAL")
