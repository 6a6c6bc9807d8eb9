package relation

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
)

// JSON wire format (the joind service API speaks this):
//
//	Value:    a JSON number (integers only) or a JSON string
//	Relation: {"attrs": ["A","B"], "tuples": [[1,2], [1,"x"]]}
//	Database: [Relation, Relation, ...]
//
// Numbers decode as exact int64s (json.Number, not float64), so large keys
// round-trip; non-integer numbers are rejected rather than truncated.
// Relations marshal their tuples in sorted order for deterministic output.

// MarshalJSON renders the value as a bare number or string.
func (v Value) MarshalJSON() ([]byte, error) {
	return v.appendJSON(nil)
}

// appendJSON appends v's wire form to buf. Strings go through json.Marshal,
// so HTML escaping, invalid UTF-8 and U+2028/U+2029 come out exactly as the
// reflective encoder writes them.
func (v Value) appendJSON(buf []byte) ([]byte, error) {
	if v.kind == KindInt {
		return strconv.AppendInt(buf, v.i, 10), nil
	}
	s, err := json.Marshal(v.s)
	if err != nil {
		return nil, err
	}
	return append(buf, s...), nil
}

// UnmarshalJSON reads a number (integer) or string.
func (v *Value) UnmarshalJSON(data []byte) error {
	var raw any
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&raw); err != nil {
		return err
	}
	switch x := raw.(type) {
	case json.Number:
		n, err := x.Int64()
		if err != nil {
			return fmt.Errorf("relation: value %s is not a 64-bit integer (string values must be JSON strings)", x)
		}
		*v = Int(n)
		return nil
	case string:
		*v = String(x)
		return nil
	default:
		return fmt.Errorf("relation: value must be an integer or a string, got %T", raw)
	}
}

// relationJSON is the wire shape of a Relation.
type relationJSON struct {
	Attrs  []string `json:"attrs"`
	Tuples []Tuple  `json:"tuples"`
}

// MarshalJSON renders the relation as {"attrs": [...], "tuples": [...]}
// with tuples in deterministic (sorted) order: AppendJSON with no limit.
func (r *Relation) MarshalJSON() ([]byte, error) {
	buf, _, err := r.AppendJSON(nil, 0)
	return buf, err
}

// AppendJSON appends to buf the bytes json.Marshal of relationJSON would
// produce over the tuples in sorted order ("tuples":null when the relation
// is empty), keeping only the first max tuples when max > 0; cut reports
// whether any were left out. The tuples are read as codes off r.Block():
// every dictionary is sorted, so rowOrder over the schema's columns is
// Tuple.Compare order without one Value comparison, and each dictionary
// entry is formatted once, on first use, then copied for every row.
func (r *Relation) AppendJSON(buf []byte, max int) (_ []byte, cut bool, err error) {
	attrs, err := json.Marshal(r.schema.Attrs())
	if err != nil {
		return nil, false, err
	}
	buf = append(buf, `{"attrs":`...)
	buf = append(buf, attrs...)
	buf = append(buf, `,"tuples":`...)
	n := r.Len()
	if cut = max > 0 && n > max; cut {
		n = max
	}
	switch {
	case n == 0:
		return append(buf, "null}"...), false, nil
	case r.schema.Len() == 0: // the one nullary tuple: nil is null, empty is []
		if r.src == nil && r.rows[0] == nil { // a decoded tuple is never nil
			return append(buf, "[null]}"...), false, nil
		}
		return append(buf, "[[]]}"...), false, nil
	}
	b := r.Block()
	cols := b.cols()
	pos := make([]int, len(cols))
	for c := range pos {
		pos[c] = c
	}
	order := b.rowOrder(pos)[:n]
	// Rows are written as ",[v0,…,vk]": each dictionary entry is formatted
	// once, on first use, with the separators around it, and the first row's
	// ',' becomes the list's '['. This pass also sums the exact output size.
	text := make([][][]byte, len(cols))
	var slab []byte
	size := 2
	for c := range cols {
		col := &cols[c]
		text[c] = make([][]byte, len(col.dict))
		for _, i := range order {
			code := col.codes[i]
			if text[c][code] == nil {
				at := len(slab)
				if slab = append(slab, ','); c == 0 {
					slab = append(slab, '[')
				}
				if slab, err = col.dict[code].appendJSON(slab); err != nil {
					return nil, false, err
				}
				if c == len(cols)-1 {
					slab = append(slab, ']')
				}
				text[c][code] = slab[at:]
			}
			size += len(text[c][code])
		}
	}
	start := len(buf)
	buf = slices.Grow(buf, size)
	for _, i := range order {
		for c := range text {
			buf = append(buf, text[c][cols[c].codes[i]]...)
		}
	}
	buf[start] = '['
	return append(buf, "]}"...), cut, nil
}

// UnmarshalJSON reads the wire shape into r, replacing its contents.
// Duplicate tuples collapse (set semantics), and arity mismatches are
// rejected with the offending tuple index.
func (r *Relation) UnmarshalJSON(data []byte) error {
	var raw relationJSON
	if err := json.Unmarshal(data, &raw); err != nil {
		return err
	}
	schema, err := NewSchema(raw.Attrs...)
	if err != nil {
		return err
	}
	out := New(schema)
	for i, t := range raw.Tuples {
		if err := out.Insert(t); err != nil {
			return fmt.Errorf("relation: tuple %d: %w", i, err)
		}
	}
	// Field-wise assignment: copying the struct would copy its atomic fields.
	// A block-backed r becomes row-backed; its block and rows are dropped.
	r.schema, r.rows, r.src = out.schema, out.rows, nil
	r.decoded.Store(nil)
	r.seen.Store(out.seen.Load())
	r.block.Store(nil)
	return nil
}

// MarshalJSON renders the database as a JSON array of its relations in
// index order.
func (d *Database) MarshalJSON() ([]byte, error) {
	return json.Marshal(d.rels)
}

// UnmarshalJSON reads a JSON array of relations into d, replacing its
// contents. At least one relation is required (a database scheme is a
// nonempty multiset).
func (d *Database) UnmarshalJSON(data []byte) error {
	var rels []*Relation
	if err := json.Unmarshal(data, &rels); err != nil {
		return err
	}
	db, err := NewDatabase(rels...)
	if err != nil {
		return err
	}
	*d = *db
	return nil
}
