package frame

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// ReadCSV parses a CSV with a header row into a frame, detecting each
// column's type from its values (Boolean if every cell is true/false, else
// Int64 if all parse as integers, Float64 if all parse as numbers, else
// String). Empty cells become NA. Records are read by encoding/csv with its
// defaults, so every record must be as wide as the header.
func ReadCSV(r io.Reader) (*Frame, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("frame: csv parse: %w", err)
	}
	return parseCSV(buf)
}

// ReadCSVFile parses a CSV file into a frame.
func ReadCSVFile(path string) (*Frame, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseCSV(buf)
}

// parseCSV parses the whole input in one pass: encoding/csv hands each
// record, one string with its fields as substrings, to the columns' typed
// builders.
func parseCSV(buf []byte) (*Frame, error) {
	r := csv.NewReader(bytes.NewReader(buf))
	r.ReuseRecord = true
	header, err := r.Read()
	if err == io.EOF {
		return &Frame{}, nil
	}
	if err != nil {
		return nil, fmt.Errorf("frame: csv parse: %w", err)
	}
	names := append([]string(nil), header...)
	// Every data row holds at least one byte per column and ends at a
	// newline or at EOF, which bounds the row count twice over.
	hint := min(bytes.Count(buf, newline), len(buf)/len(names)) + 1
	cols := make([]colBuilder, len(names))
	for j := range cols {
		cols[j].hint = hint
	}
	for {
		rec, err := r.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("frame: csv parse: %w", err)
		}
		for j, v := range rec {
			cols[j].add(v)
		}
	}
	out := make([]*Column, len(cols))
	for j := range cols {
		out[j] = cols[j].column(names[j])
	}
	return New(out...)
}

var newline = []byte{'\n'}

// cellKind is what a column's non-empty cells so far all parse as. It only
// widens: kindNA (no value yet) to any other kind, Int to Float, and
// anything to String.
type cellKind uint8

const (
	kindNA cellKind = iota
	kindBool
	kindInt
	kindFloat
	kindString
)

// kindOf is the narrowest kind of one non-empty cell.
func kindOf(v string) cellKind {
	if _, ok := parseBool(v); ok {
		return kindBool
	}
	if _, err := strconv.ParseInt(v, 10, 64); err == nil {
		return kindInt
	}
	if _, err := strconv.ParseFloat(v, 64); err == nil {
		return kindFloat
	}
	return kindString
}

func parseBool(v string) (bool, bool) {
	switch v {
	case "true":
		return true, true
	case "false":
		return false, true
	}
	return false, false
}

// colBuilder accumulates one column's cells as the narrowest type that
// holds them all, with one strconv call per cell. When a cell contradicts
// the type, the column widens by parsing its earlier cells again from their
// text: converting the stored values would not do, since float64 of
// ParseInt("-0") is +0 while ParseFloat("-0") is -0.
type colBuilder struct {
	kind   cellKind
	hint   int      // capacity for the per-cell slices
	n      int      // cells so far
	cells  []string // every cell so far, for widening; dropped at kindString
	na     []bool
	bools  []bool
	ints   []int64
	floats []float64
	strs   []string
	intern map[string]string
}

// add appends the cell v.
func (c *colBuilder) add(v string) {
	if c.kind != kindString {
		if c.cells == nil {
			c.cells = make([]string, 0, c.hint)
		}
		c.cells = append(c.cells, v)
	}
	if len(v) == 0 && c.na == nil {
		c.na = make([]bool, c.n, c.hint)
	}
	if c.na != nil {
		c.na = append(c.na, len(v) == 0)
	}
	c.n++
	if len(v) == 0 {
		c.appendZero()
		return
	}
	if c.put(v) {
		return
	}
	wider := kindString
	switch c.kind {
	case kindNA:
		wider = kindOf(v)
	case kindInt:
		if _, err := strconv.ParseFloat(v, 64); err == nil {
			wider = kindFloat
		}
	}
	c.widen(wider)
}

// put appends the non-empty cell v as the column's kind, or reports that v
// does not parse as it.
func (c *colBuilder) put(v string) bool {
	switch c.kind {
	case kindBool:
		b, ok := parseBool(v)
		if ok {
			c.bools = append(c.bools, b)
		}
		return ok
	case kindInt:
		x, err := strconv.ParseInt(v, 10, 64)
		if err == nil {
			c.ints = append(c.ints, x)
		}
		return err == nil
	case kindFloat:
		x, err := strconv.ParseFloat(v, 64)
		if err == nil {
			c.floats = append(c.floats, x)
		}
		return err == nil
	case kindString:
		c.strs = append(c.strs, c.str(v))
		return true
	}
	return false
}

func (c *colBuilder) appendZero() {
	switch c.kind {
	case kindBool:
		c.bools = append(c.bools, false)
	case kindInt:
		c.ints = append(c.ints, 0)
	case kindFloat:
		c.floats = append(c.floats, 0)
	case kindString:
		c.strs = append(c.strs, "")
	}
}

// widen switches the column to kind k and rebuilds its values, the
// latest cell's included, from the cells' text.
func (c *colBuilder) widen(k cellKind) {
	c.kind = k
	c.bools, c.ints, c.floats = nil, nil, nil
	switch k {
	case kindBool:
		c.bools = make([]bool, 0, c.hint)
	case kindInt:
		c.ints = make([]int64, 0, c.hint)
	case kindFloat:
		c.floats = make([]float64, 0, c.hint)
	case kindString:
		c.strs = make([]string, 0, c.hint)
		c.intern = map[string]string{}
	}
	for i, v := range c.cells {
		if c.na != nil && c.na[i] {
			c.appendZero()
		} else {
			c.put(v) // every cell so far parses as k
		}
	}
	if k == kindString {
		c.cells = nil
	}
}

// str interns v within the column. A new value is copied, so the frame
// keeps no record's string alive.
func (c *colBuilder) str(v string) string {
	if s, ok := c.intern[v]; ok {
		return s
	}
	s := strings.Clone(v)
	c.intern[s] = s
	return s
}

// column returns the finished column; one without any value is Boolean.
func (c *colBuilder) column(name string) *Column {
	col := &Column{Name: name, NA: c.na}
	switch c.kind {
	case kindNA:
		col.Type, col.Bools = Boolean, make([]bool, c.n)
	case kindBool:
		col.Type, col.Bools = Boolean, c.bools
	case kindInt:
		col.Type, col.Ints = Int64, c.ints
	case kindFloat:
		col.Type, col.Floats = Float64, c.floats
	case kindString:
		col.Type, col.Strings = String, c.strs
	}
	return col
}

// WriteCSV writes the frame with a header row; NA cells are written empty.
func (f *Frame) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(f.Names()); err != nil {
		return err
	}
	rec := make([]string, f.NumCols())
	for i := 0; i < f.NumRows(); i++ {
		for j, c := range f.cols {
			rec[j] = c.AsString(i)
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSVFile writes the frame to a CSV file.
func (f *Frame) WriteCSVFile(path string) error {
	w, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := f.WriteCSV(w); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}
