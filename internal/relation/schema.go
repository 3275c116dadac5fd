// Package relation implements the nested relational data model of
// Definitions 1 and 2 in Cao & Badia (SIGMOD 2005): a schema is a set of
// atomic attributes plus zero or more named subschemas, recursively; a
// relation is a finite set of tuples over such a schema, where a tuple
// assigns an atomic value to each atomic attribute and a (possibly empty)
// nested relation to each subschema.
//
// Following the paper's Definition 1, atomic attributes come first and
// subschemas after them; the implementation preserves that split, which
// keeps nest/unnest and the linking selection simple.
package relation

import (
	"fmt"
	"strings"
	"sync"

	"nra/internal/value"
)

// Type is the declared type of an atomic column.
type Type uint8

// Atomic column types. TAny is used for derived columns whose type is not
// statically known (e.g. literals flowing through projections).
const (
	TAny Type = iota
	TInt
	TFloat
	TString
	TBool
)

// String returns the SQL name of the type.
func (t Type) String() string {
	switch t {
	case TAny:
		return "ANY"
	case TInt:
		return "INTEGER"
	case TFloat:
		return "FLOAT"
	case TString:
		return "VARCHAR"
	case TBool:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Column describes one atomic attribute of a schema.
type Column struct {
	Name string // fully qualified, e.g. "R.B" or "lineitem.l_orderkey"
	Type Type
}

// Sub is a named subschema: a nested, set-valued attribute.
type Sub struct {
	Name   string // name of the nested attribute, e.g. "T" or "grp1"
	Schema *Schema
}

// Schema is a (possibly nested) relational schema. Schemas are treated
// as immutable after construction; the lazy name index is guarded so a
// schema may be shared by concurrent queries.
type Schema struct {
	Name string   // relation name; informational
	Cols []Column // atomic attributes A1..An
	Subs []Sub    // subschemas R1..Rm

	mu     sync.Mutex
	byName map[string]int // lazy index over Cols
}

// NewSchema builds a flat schema from column definitions.
func NewSchema(name string, cols ...Column) *Schema {
	return &Schema{Name: name, Cols: cols}
}

// Depth implements Definition 1: 0 for a flat schema, otherwise one more
// than the deepest subschema.
func (s *Schema) Depth() int {
	d := 0
	for _, sub := range s.Subs {
		if sd := sub.Schema.Depth() + 1; sd > d {
			d = sd
		}
	}
	return d
}

// ColIndex returns the position of the atomic column with the given name,
// or -1. Names are matched exactly first; if that fails, a unique
// unqualified suffix match (".name") is accepted.
func (s *Schema) ColIndex(name string) int {
	s.mu.Lock()
	if s.byName == nil {
		s.byName = make(map[string]int, len(s.Cols))
		for i, c := range s.Cols {
			s.byName[c.Name] = i
		}
	}
	i, ok := s.byName[name]
	s.mu.Unlock()
	if ok {
		return i
	}
	// Unqualified lookup: accept a unique suffix match.
	found := -1
	suffix := "." + name
	for i, c := range s.Cols {
		if strings.HasSuffix(c.Name, suffix) {
			if found >= 0 {
				return -1 // ambiguous
			}
			found = i
		}
	}
	return found
}

// SubIndex returns the position of the named subschema, or -1.
func (s *Schema) SubIndex(name string) int {
	for i, sub := range s.Subs {
		if sub.Name == name {
			return i
		}
	}
	return -1
}

// MustColIndex is ColIndex that panics on a missing column; used by
// operator constructors whose inputs were already validated.
func (s *Schema) MustColIndex(name string) int {
	i := s.ColIndex(name)
	if i < 0 {
		panic(fmt.Sprintf("relation: schema %s has no column %q", s.Name, name))
	}
	return i
}

// ColNames returns the names of all atomic columns, in order.
func (s *Schema) ColNames() []string {
	names := make([]string, len(s.Cols))
	for i, c := range s.Cols {
		names[i] = c.Name
	}
	return names
}

// Clone returns a deep copy of the schema (shared nothing, so operators can
// rename columns without aliasing surprises).
func (s *Schema) Clone() *Schema {
	c := &Schema{Name: s.Name, Cols: append([]Column(nil), s.Cols...)}
	for _, sub := range s.Subs {
		c.Subs = append(c.Subs, Sub{Name: sub.Name, Schema: sub.Schema.Clone()})
	}
	return c
}

// Equal reports structural equality of two schemas (names, types, nesting).
func (s *Schema) Equal(o *Schema) bool {
	if len(s.Cols) != len(o.Cols) || len(s.Subs) != len(o.Subs) {
		return false
	}
	for i := range s.Cols {
		if s.Cols[i] != o.Cols[i] {
			return false
		}
	}
	for i := range s.Subs {
		if s.Subs[i].Name != o.Subs[i].Name || !s.Subs[i].Schema.Equal(o.Subs[i].Schema) {
			return false
		}
	}
	return true
}

// String renders the schema in the paper's notation,
// e.g. "R(A, B, C, D)" or "Temp2(B, C, D, E, H, I, (J, L))".
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteByte('(')
	for i, c := range s.Cols {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(c.Name)
	}
	for _, sub := range s.Subs {
		if len(s.Cols) > 0 {
			b.WriteString(", ")
		}
		inner := sub.Schema.String()
		// Strip the inner name to match the paper's "(J, L)" look.
		if i := strings.IndexByte(inner, '('); i >= 0 {
			inner = inner[i:]
		}
		b.WriteString(inner)
	}
	b.WriteByte(')')
	return b.String()
}

// typeOf maps a value kind to a column type.
func typeOf(v value.Value) Type {
	switch v.Kind() {
	case value.KindInt:
		return TInt
	case value.KindFloat:
		return TFloat
	case value.KindString:
		return TString
	case value.KindBool:
		return TBool
	default:
		return TAny
	}
}
