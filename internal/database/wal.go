package database

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
)

// Disk persistence for the write-ahead log: committed transactions stream
// to an io.Writer as binary records, and a database rebuilds from the
// stream on restart: ReadWALPrefix decodes the image and ResetTo replays
// it. (Section 7's database server "produces and stores all the
// information"; storing it durably is table stakes.)
//
// Record format. Each record is self-contained:
//
//	len   uint32 little-endian, byte length of body
//	crc   uint32 little-endian, CRC-32C (Castagnoli) of body
//	body  uvarint TxID, uvarint op count, then per op:
//	        kind byte, table string, tagged key,
//	        uvarint column count, then per column (names strictly
//	        ascending): name string, tagged value,
//	        and for OpCreate only: uvarint column count, per column
//	        name string and type byte, then the PK string.
//
// A string is a uvarint length and its bytes. A tagged value is a ColType
// byte and its payload: string and []byte as strings, int64 as a zigzag
// varint, float64 as its IEEE-754 bits in 8 little-endian bytes, bool as
// one 0/1 byte; tag 0 is a nil key (DDL records have none). Columns are
// written in sorted name order, so an image is a pure function of its
// records, and a record appended by any writer extends a valid image.

const walHeader = 8

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WALWriter streams committed transactions to w as they commit. Attach at
// most one per database.
type WALWriter struct {
	w     io.Writer
	buf   []byte   // scratch record, reused across writes
	names []string // scratch column names, reused across writes
	err   error
}

// PersistTo attaches a WAL writer: every transaction that commits from now
// on is encoded to w before Commit returns (write-ahead durability).
// Existing WAL records are written out first, so attaching to a populated
// database checkpoints it.
func (db *DB) PersistTo(w io.Writer) (*WALWriter, error) {
	ww := &WALWriter{w: w}
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

// write encodes one record and hands it to the sink in a single Write.
func (ww *WALWriter) write(rec LogRecord) error {
	if ww.err != nil {
		return ww.err
	}
	buf, err := ww.appendRecord(ww.buf[:0], rec)
	ww.buf = buf
	if err == nil {
		_, err = ww.w.Write(buf)
	}
	if err != nil {
		ww.err = fmt.Errorf("database: wal write: %w", err)
	}
	return ww.err
}

// appendRecord appends rec's framed encoding to b.
func (ww *WALWriter) appendRecord(b []byte, rec LogRecord) ([]byte, error) {
	start := len(b)
	b = append(b, make([]byte, walHeader)...)
	b = binary.AppendUvarint(b, rec.TxID)
	b = binary.AppendUvarint(b, uint64(len(rec.Ops)))
	for i := range rec.Ops {
		op := &rec.Ops[i]
		var err error
		b = append(b, byte(op.Kind))
		b = appendString(b, op.Table)
		if b, err = appendValue(b, op.Key, true); err != nil {
			return b, err
		}
		names := ww.names[:0]
		for name := range op.Row {
			names = append(names, name)
		}
		slices.Sort(names)
		ww.names = names
		b = binary.AppendUvarint(b, uint64(len(names)))
		for _, name := range names {
			b = appendString(b, name)
			if b, err = appendValue(b, op.Row[name], false); err != nil {
				return b, fmt.Errorf("column %q: %w", name, err)
			}
		}
		if op.Kind == OpCreate {
			b = binary.AppendUvarint(b, uint64(len(op.Schema)))
			for _, col := range op.Schema {
				b = appendString(b, col.Name)
				b = append(b, byte(col.Type))
			}
			b = appendString(b, op.PK)
		}
	}
	body := b[start+walHeader:]
	binary.LittleEndian.PutUint32(b[start:], uint32(len(body)))
	binary.LittleEndian.PutUint32(b[start+4:], crc32.Checksum(body, castagnoli))
	return b, nil
}

func appendString(b []byte, s string) []byte {
	b = binary.AppendUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// appendValue appends a tagged value; nil is allowed only for a key.
func appendValue(b []byte, v any, key bool) ([]byte, error) {
	switch v := v.(type) {
	case string:
		return appendString(append(b, byte(TypeString)), v), nil
	case int64:
		return binary.AppendVarint(append(b, byte(TypeInt)), v), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(b, byte(TypeFloat)), math.Float64bits(v)), nil
	case bool:
		c := byte(0)
		if v {
			c = 1
		}
		return append(b, byte(TypeBool), c), nil
	case []byte:
		b = binary.AppendUvarint(append(b, byte(TypeBytes)), uint64(len(v)))
		return append(b, v...), nil
	case nil:
		if key {
			return append(b, 0), nil
		}
	}
	return b, fmt.Errorf("%w: cannot log %T", ErrType, v)
}

// ReadWALPrefix decodes a WAL byte image back into log records. A
// truncated tail (torn final record after a crash) is tolerated: complete
// records up to the corruption are returned along with ErrTruncatedWAL.
// A short header, a short body, a checksum mismatch or a malformed body
// each end the valid prefix. It also reports the exact byte length of
// that prefix: the offset just past the last complete record. Records are
// self-contained, so truncating the file to that offset yields an image
// that decodes cleanly and that a fresh WALWriter may append to — what
// crash recovery needs to discard a torn tail once instead of
// re-tolerating it on every later open.
func ReadWALPrefix(data []byte) (recs []LogRecord, validLen int, err error) {
	d := walDecoder{intern: make(map[string]any)}
	for validLen < len(data) {
		rest := data[validLen:]
		if len(rest) < walHeader {
			return recs, validLen, fmt.Errorf("%w: short header at offset %d", ErrTruncatedWAL, validLen)
		}
		n := binary.LittleEndian.Uint32(rest)
		if uint64(n) > uint64(len(rest)-walHeader) {
			return recs, validLen, fmt.Errorf("%w: short body at offset %d", ErrTruncatedWAL, validLen)
		}
		body := rest[walHeader : walHeader+int(n)]
		if crc32.Checksum(body, castagnoli) != binary.LittleEndian.Uint32(rest[4:]) {
			return recs, validLen, fmt.Errorf("%w: checksum mismatch at offset %d", ErrTruncatedWAL, validLen)
		}
		d.b = body
		rec, ok := d.record()
		if !ok {
			return recs, validLen, fmt.Errorf("%w: malformed record at offset %d", ErrTruncatedWAL, validLen)
		}
		recs = append(recs, rec)
		validLen += walHeader + int(n)
	}
	return recs, validLen, nil
}

// walDecoder reads one record body. Names and string values (keys,
// origins) repeat across records, so each distinct string is allocated and
// boxed once per image; committed rows are immutable, so they may share it.
type walDecoder struct {
	b      []byte
	bad    bool
	intern map[string]any
}

func (d *walDecoder) record() (LogRecord, bool) {
	rec := LogRecord{TxID: d.uvarint()}
	n := d.count()
	if n > 0 {
		rec.Ops = make([]Op, n)
	}
	for i := range rec.Ops {
		op := &rec.Ops[i]
		op.Kind = OpKind(d.byte())
		if op.Kind < OpInsert || op.Kind > OpCreate {
			d.bad = true
		}
		op.Table = d.name()
		op.Key = d.value(true)
		if cols := d.count(); cols > 0 {
			op.Row = make(Row, cols)
			prev := ""
			for j := 0; j < cols && !d.bad; j++ {
				name := d.name()
				if j > 0 && name <= prev {
					d.bad = true // names must be strictly ascending
				}
				op.Row[name] = d.value(false)
				prev = name
			}
		}
		if op.Kind == OpCreate {
			if cols := d.count(); cols > 0 {
				op.Schema = make(Schema, cols)
				for j := range op.Schema {
					op.Schema[j] = Column{Name: d.name(), Type: ColType(d.byte())}
				}
			}
			op.PK = d.name()
		}
		if d.bad {
			return LogRecord{}, false
		}
	}
	return rec, !d.bad && len(d.b) == 0
}

func (d *walDecoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.bad = true
		return 0
	}
	d.b = d.b[n:]
	return v
}

// count reads a uvarint element count, bounded by the bytes left (every
// element takes at least one), so hostile input cannot force a large
// allocation.
func (d *walDecoder) count() int {
	v := d.uvarint()
	if v > uint64(len(d.b)) {
		d.bad = true
		return 0
	}
	return int(v)
}

func (d *walDecoder) byte() byte {
	if len(d.b) == 0 {
		d.bad = true
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

func (d *walDecoder) bytes() []byte {
	n := d.count()
	s := d.b[:n]
	d.b = d.b[n:]
	return s
}

// str reads a string, boxed, returning one shared copy per distinct value.
func (d *walDecoder) str() any {
	b := d.bytes()
	if v, ok := d.intern[string(b)]; ok {
		return v
	}
	s := string(b)
	var v any = s
	d.intern[s] = v
	return v
}

// name reads a table, column or PK name.
func (d *walDecoder) name() string { return d.str().(string) }

// value reads a tagged value; tag 0 (nil) is accepted only for a key.
func (d *walDecoder) value(key bool) any {
	switch tag := ColType(d.byte()); tag {
	case TypeString:
		return d.str()
	case TypeInt:
		v, n := binary.Varint(d.b)
		if n <= 0 {
			d.bad = true
			return nil
		}
		d.b = d.b[n:]
		return v
	case TypeFloat:
		if len(d.b) < 8 {
			d.bad = true
			return nil
		}
		v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
		d.b = d.b[8:]
		return v
	case TypeBool:
		switch d.byte() {
		case 0:
			return false
		case 1:
			return true
		}
	case TypeBytes:
		return append([]byte(nil), d.bytes()...)
	case 0:
		if key {
			return nil
		}
	}
	d.bad = true
	return nil
}

// ErrTruncatedWAL reports a WAL stream that ends mid-record (a torn write
// from a crash) or whose last record fails its checksum or does not
// parse; the records decoded before it are still valid.
var ErrTruncatedWAL = errors.New("database: truncated WAL")
