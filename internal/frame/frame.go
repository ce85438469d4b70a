// Package frame implements heterogeneous data frames — the raw-data
// representation that federated workers read from files before feature
// transformation (ExDRa §4.4). A frame is a list of named, typed columns
// with per-cell NULL (NA) flags.
package frame

import (
	"fmt"
	"math"
	"strconv"
)

// ValueType enumerates the supported column value types.
type ValueType int

// Supported column value types.
const (
	Float64 ValueType = iota
	Int64
	String
	Boolean
)

// String returns the schema name of the type.
func (t ValueType) String() string {
	switch t {
	case Float64:
		return "FP64"
	case Int64:
		return "INT64"
	case String:
		return "STRING"
	case Boolean:
		return "BOOLEAN"
	default:
		return fmt.Sprintf("ValueType(%d)", int(t))
	}
}

// Column is a named, typed column with an NA mask. Exactly one of the typed
// slices is populated according to Type; NA[i] marks cell i as NULL.
type Column struct {
	Name    string
	Type    ValueType
	Floats  []float64
	Ints    []int64
	Strings []string
	Bools   []bool
	NA      []bool
}

// Len returns the number of cells in the column.
func (c *Column) Len() int {
	switch c.Type {
	case Float64:
		return len(c.Floats)
	case Int64:
		return len(c.Ints)
	case String:
		return len(c.Strings)
	case Boolean:
		return len(c.Bools)
	}
	return 0
}

// IsNA reports whether cell i is NULL.
func (c *Column) IsNA(i int) bool { return i < len(c.NA) && c.NA[i] }

// AsFloat returns cell i coerced to float64 (NaN for NA; bools as 0/1).
// String columns cannot be coerced and return an error: schema drift in a
// site's raw files must surface as an error response at the federated
// worker, not as a panic that kills the standing process.
func (c *Column) AsFloat(i int) (float64, error) {
	if c.IsNA(i) {
		return math.NaN(), nil
	}
	switch c.Type {
	case Float64:
		return c.Floats[i], nil
	case Int64:
		return float64(c.Ints[i]), nil
	case Boolean:
		if c.Bools[i] {
			return 1, nil
		}
		return 0, nil
	default:
		return 0, fmt.Errorf("frame: column %q of type %v cannot be read as float", c.Name, c.Type)
	}
}

// MustFloat is AsFloat panicking on non-coercible columns, for tests and
// code paths over already-validated schemas.
func (c *Column) MustFloat(i int) float64 {
	v, err := c.AsFloat(i)
	if err != nil {
		panic(err)
	}
	return v
}

// AsString returns cell i rendered as a string ("" for NA).
func (c *Column) AsString(i int) string {
	if c.IsNA(i) {
		return ""
	}
	switch c.Type {
	case Float64:
		return strconv.FormatFloat(c.Floats[i], 'g', -1, 64)
	case Int64:
		return strconv.FormatInt(c.Ints[i], 10)
	case String:
		return c.Strings[i]
	case Boolean:
		if c.Bools[i] {
			return "true"
		}
		return "false"
	}
	return ""
}

// Slice returns cells [beg, end) as a new column.
func (c *Column) Slice(beg, end int) *Column {
	out := &Column{Name: c.Name, Type: c.Type}
	switch c.Type {
	case Float64:
		out.Floats = append([]float64(nil), c.Floats[beg:end]...)
	case Int64:
		out.Ints = append([]int64(nil), c.Ints[beg:end]...)
	case String:
		out.Strings = append([]string(nil), c.Strings[beg:end]...)
	case Boolean:
		out.Bools = append([]bool(nil), c.Bools[beg:end]...)
	}
	if c.NA != nil {
		out.NA = append([]bool(nil), c.NA[beg:end]...)
	}
	return out
}

// Frame is an ordered collection of equally long columns.
type Frame struct {
	cols []*Column
}

// New builds a frame from columns, validating equal lengths and unique names.
func New(cols ...*Column) (*Frame, error) {
	seen := make(map[string]bool, len(cols))
	n := -1
	for _, c := range cols {
		if seen[c.Name] {
			return nil, fmt.Errorf("frame: duplicate column name %q", c.Name)
		}
		seen[c.Name] = true
		if n == -1 {
			n = c.Len()
		} else if c.Len() != n {
			return nil, fmt.Errorf("frame: column %q has %d rows, want %d", c.Name, c.Len(), n)
		}
	}
	return &Frame{cols: cols}, nil
}

// MustNew is New panicking on error, for literals in tests and examples.
func MustNew(cols ...*Column) *Frame {
	f, err := New(cols...)
	if err != nil {
		panic(err)
	}
	return f
}

// NumRows returns the number of rows.
func (f *Frame) NumRows() int {
	if len(f.cols) == 0 {
		return 0
	}
	return f.cols[0].Len()
}

// NumCols returns the number of columns.
func (f *Frame) NumCols() int { return len(f.cols) }

// Column returns column j.
func (f *Frame) Column(j int) *Column { return f.cols[j] }

// ColumnByName returns the column with the given name, or nil.
func (f *Frame) ColumnByName(name string) *Column {
	for _, c := range f.cols {
		if c.Name == name {
			return c
		}
	}
	return nil
}

// Names returns the column names in order.
func (f *Frame) Names() []string {
	out := make([]string, len(f.cols))
	for i, c := range f.cols {
		out[i] = c.Name
	}
	return out
}

// SliceRows returns rows [beg, end) as a new frame.
func (f *Frame) SliceRows(beg, end int) *Frame {
	cols := make([]*Column, len(f.cols))
	for i, c := range f.cols {
		cols[i] = c.Slice(beg, end)
	}
	return &Frame{cols: cols}
}

// RowView returns rows [beg, end) as a view: the new frame's columns share
// f's arrays (capped at end, so appending to one cannot write into f), and
// neither may be mutated while the other is in use.
func (f *Frame) RowView(beg, end int) *Frame {
	cols := make([]*Column, len(f.cols))
	for i, c := range f.cols {
		v := &Column{Name: c.Name, Type: c.Type,
			Floats: window(c.Floats, beg, end), Ints: window(c.Ints, beg, end),
			Strings: window(c.Strings, beg, end), Bools: window(c.Bools, beg, end)}
		if c.NA != nil {
			v.NA = c.NA[beg:end:end]
		}
		cols[i] = v
	}
	return &Frame{cols: cols}
}

// window returns s[beg:end] capped at end, or nil when s is empty.
func window[T any](s []T, beg, end int) []T {
	if len(s) == 0 {
		return nil
	}
	return s[beg:end:end]
}

// RBind vertically concatenates frames with identical schemas (names and
// types, in order).
func RBind(fs ...*Frame) (*Frame, error) {
	if len(fs) == 0 {
		return &Frame{}, nil
	}
	first := fs[0]
	cols := make([]*Column, first.NumCols())
	for j := range cols {
		cols[j] = &Column{Name: first.cols[j].Name, Type: first.cols[j].Type}
	}
	for _, f := range fs {
		if f.NumCols() != len(cols) {
			return nil, fmt.Errorf("frame: rbind column count mismatch")
		}
		for j, c := range f.cols {
			if c.Name != cols[j].Name || c.Type != cols[j].Type {
				return nil, fmt.Errorf("frame: rbind schema mismatch at column %d", j)
			}
			appendColumn(cols[j], c)
		}
	}
	return New(cols...)
}

func appendColumn(dst, src *Column) {
	pre := dst.Len()
	switch src.Type {
	case Float64:
		dst.Floats = append(dst.Floats, src.Floats...)
	case Int64:
		dst.Ints = append(dst.Ints, src.Ints...)
	case String:
		dst.Strings = append(dst.Strings, src.Strings...)
	case Boolean:
		dst.Bools = append(dst.Bools, src.Bools...)
	}
	if src.NA != nil || dst.NA != nil {
		if dst.NA == nil {
			dst.NA = make([]bool, pre)
		}
		if src.NA != nil {
			dst.NA = append(dst.NA, src.NA...)
		} else {
			dst.NA = append(dst.NA, make([]bool, src.Len())...)
		}
	}
}

// FloatColumn builds a Float64 column.
func FloatColumn(name string, values []float64) *Column {
	return &Column{Name: name, Type: Float64, Floats: values}
}

// IntColumn builds an Int64 column.
func IntColumn(name string, values []int64) *Column {
	return &Column{Name: name, Type: Int64, Ints: values}
}

// StringColumn builds a String column; empty strings are marked NA.
func StringColumn(name string, values []string) *Column {
	na := make([]bool, len(values))
	any := false
	for i, v := range values {
		if v == "" {
			na[i] = true
			any = true
		}
	}
	c := &Column{Name: name, Type: String, Strings: values}
	if any {
		c.NA = na
	}
	return c
}
