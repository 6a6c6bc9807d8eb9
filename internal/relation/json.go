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
// with tuples in deterministic (sorted) order, appending into one buffer
// the bytes json.Marshal of relationJSON would produce ("tuples":null when
// the relation is empty).
func (r *Relation) MarshalJSON() ([]byte, error) {
	attrs, err := json.Marshal(r.schema.Attrs())
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 0, len(attrs)+32+8*len(r.rows)*r.schema.Len())
	buf = append(buf, `{"attrs":`...)
	buf = append(buf, attrs...)
	buf = append(buf, `,"tuples":`...)
	if len(r.rows) == 0 {
		return append(buf, "null}"...), nil
	}
	rows := slices.Clone(r.rows)
	slices.SortFunc(rows, Tuple.Compare)
	buf = append(buf, '[')
	for i, t := range rows {
		if i > 0 {
			buf = append(buf, ',')
		}
		if t == nil {
			buf = append(buf, "null"...)
			continue
		}
		buf = append(buf, '[')
		for j, v := range t {
			if j > 0 {
				buf = append(buf, ',')
			}
			if buf, err = v.appendJSON(buf); err != nil {
				return nil, err
			}
		}
		buf = append(buf, ']')
	}
	return append(buf, "]}"...), nil
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
	// Field-wise assignment: copying the struct would copy its atomic field.
	r.schema, r.rows = out.schema, out.rows
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
