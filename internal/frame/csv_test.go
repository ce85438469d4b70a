package frame

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"
	"unsafe"
)

// oracleReadCSV is the reader ReadCSV replaced — encoding/csv's ReadAll,
// then ParseInt and ParseFloat on every cell — kept as the reference the
// one-pass reader must match bit for bit.
func oracleReadCSV(r io.Reader) (*Frame, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, fmt.Errorf("frame: csv parse: %w", err)
	}
	if len(records) == 0 {
		return &Frame{}, nil
	}
	header := records[0]
	rows := records[1:]
	cols := make([]*Column, len(header))
	for j, name := range header {
		raw := make([]string, len(rows))
		for i, rec := range rows {
			if j < len(rec) {
				raw[i] = rec[j]
			}
		}
		cols[j] = oracleColumn(name, raw)
	}
	return New(cols...)
}

func oracleColumn(name string, raw []string) *Column {
	isInt, isFloat, isBool := true, true, true
	for _, v := range raw {
		if v == "" {
			continue
		}
		if _, err := strconv.ParseInt(v, 10, 64); err != nil {
			isInt = false
		}
		if _, err := strconv.ParseFloat(v, 64); err != nil {
			isFloat = false
		}
		if v != "true" && v != "false" {
			isBool = false
		}
	}
	na := make([]bool, len(raw))
	anyNA := false
	for i, v := range raw {
		if v == "" {
			na[i] = true
			anyNA = true
		}
	}
	c := &Column{Name: name}
	if anyNA {
		c.NA = na
	}
	switch {
	case isBool:
		c.Type, c.Bools = Boolean, make([]bool, len(raw))
		for i, v := range raw {
			c.Bools[i] = v == "true"
		}
	case isInt:
		c.Type, c.Ints = Int64, make([]int64, len(raw))
		for i, v := range raw {
			if v != "" {
				c.Ints[i], _ = strconv.ParseInt(v, 10, 64)
			}
		}
	case isFloat:
		c.Type, c.Floats = Float64, make([]float64, len(raw))
		for i, v := range raw {
			if v != "" {
				c.Floats[i], _ = strconv.ParseFloat(v, 64)
			}
		}
	default:
		c.Type, c.Strings = String, raw
	}
	return c
}

// frameDiff describes the first difference between two frames — names,
// schema, NA masks (nil-ness included), float bits, ints, bools, strings —
// or returns "" when they are identical.
func frameDiff(got, want *Frame) string {
	if got.NumCols() != want.NumCols() || got.NumRows() != want.NumRows() {
		return fmt.Sprintf("shape %dx%d, want %dx%d", got.NumRows(), got.NumCols(), want.NumRows(), want.NumCols())
	}
	for j := range got.cols {
		g, w := got.cols[j], want.cols[j]
		if g.Name != w.Name || g.Type != w.Type {
			return fmt.Sprintf("column %d is %q %v, want %q %v", j, g.Name, g.Type, w.Name, w.Type)
		}
		if (g.NA == nil) != (w.NA == nil) {
			return fmt.Sprintf("column %q: NA mask present %v, want %v", g.Name, g.NA != nil, w.NA != nil)
		}
		for i := 0; i < g.Len(); i++ {
			same := g.IsNA(i) == w.IsNA(i)
			switch g.Type {
			case Float64:
				same = same && math.Float64bits(g.Floats[i]) == math.Float64bits(w.Floats[i])
			case Int64:
				same = same && g.Ints[i] == w.Ints[i]
			case Boolean:
				same = same && g.Bools[i] == w.Bools[i]
			case String:
				same = same && g.Strings[i] == w.Strings[i]
			}
			if !same {
				return fmt.Sprintf("column %q row %d: %q (NA %v), want %q (NA %v)",
					g.Name, i, g.AsString(i), g.IsNA(i), w.AsString(i), w.IsNA(i))
			}
		}
	}
	return ""
}

// csvSeed is one seed input of FuzzReadCSV. Beyond matching the oracle, a
// seed may pin its result: want is the frame it must parse to, fails that
// it must be rejected.
type csvSeed struct {
	in    string
	want  *Frame
	fails bool
}

func csvSeeds() []csvSeed {
	var roundTrip bytes.Buffer
	if err := sample().WriteCSV(&roundTrip); err != nil {
		panic(err)
	}
	return []csvSeed{
		// The inputs of TestCSVRoundTrip and TestCSVTypeInferenceWithNAs.
		{in: roundTrip.String()},
		{in: "A,B\nx,1\n,2\ny,\n"},
		// Quoting: commas, "" escapes, newlines and CRLF inside quotes.
		{in: "a,b\n\"x,y\",1\n\"p,q\",2\n"},
		{in: "a,b\n\"say \"\"hi\"\"\",1\n\"\"\"\",2\n"},
		{in: "a,b\n\"line1\nline2\",3\n\"x\r\ny\",4\n", want: MustNew(
			StringColumn("a", []string{"line1\nline2", "x\ny"}),
			IntColumn("b", []int64{3, 4}),
		)},
		{in: "a\n\"\"\n1\n\"2\"\n"},
		// Line structure: CRLF, blank lines, no final newline, a final \r.
		{in: "a,b\r\n1,2\r\n3,4\r\n"},
		{in: "a,b\n\n1,2\n\r\n\n3,4\n\n"},
		{in: "a,b\n1,2\n3,4"},
		{in: "a,b\n1,2\r"},
		{in: "a,b\n1,x\r\ny\r,2\r\r\n"},
		{in: "a,b\n1,\n"},
		{in: "\n\r\n\n"},
		{in: ""},
		{in: "a,b,c\n"},
		{in: "\ufeffa,b\n1,2\n"},
		// Malformed input.
		{in: "a,b\n1,2\n3\n", fails: true},
		{in: "a,b\n1,2,3\n", fails: true},
		{in: "a,b\n1,x\"y\n", fails: true},
		{in: "a,b\n\"x\"y,1\n", fails: true},
		{in: "a,b\n\"x,1\n", fails: true},
		{in: "\ufeff\"a\",b\n1,2\n", fails: true},
		{in: "a,a\n1,2\n", fails: true},
		// Number edges: -0 read as an int and then widened to float must
		// be -0, out-of-range floats are strings, int64 overflow is float.
		{in: "a\n1\n-0\n2.5\n", want: MustNew(FloatColumn("a", []float64{1, math.Copysign(0, -1), 2.5}))},
		{in: "a\n-0\n1\n"},
		{in: "a\n1\n1e400\n", want: MustNew(StringColumn("a", []string{"1", "1e400"}))},
		{in: "a\n1\n9223372036854775808\n", want: MustNew(FloatColumn("a", []float64{1, 9223372036854775808}))},
		{in: "a,b,c,d\nNaN,+Inf,0x1p-2,+5\n1,2,3,4\n"},
		{in: "a\n1_000\n2\n"},
		// Booleans with NAs, an all-empty column, booleans among numbers.
		{in: "f,g\ntrue,\n,\nfalse,\n", want: MustNew(
			&Column{Name: "f", Type: Boolean, Bools: []bool{true, false, false}, NA: []bool{false, true, false}},
			&Column{Name: "g", Type: Boolean, Bools: []bool{false, false, false}, NA: []bool{true, true, true}},
		)},
		{in: "a\ntrue\n1\n"},
		{in: "a\n1\ntrue\n"},
		{in: productionCSV(60, 2)},
	}
}

// productionCSV renders a table shaped like data.PaperProduction's: normal
// float signals, a recipe ID out of 40 and a quality class with 1 % NULLs.
func productionCSV(rows, signals int) string {
	rng := rand.New(rand.NewSource(7))
	cols := make([]*Column, 0, signals+2)
	for j := 0; j < signals; j++ {
		v := make([]float64, rows)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		cols = append(cols, FloatColumn(fmt.Sprintf("signal_%02d", j), v))
	}
	recipe, quality := make([]string, rows), make([]string, rows)
	for i := range recipe {
		recipe[i] = fmt.Sprintf("R%03d", rng.Intn(40))
		if rng.Float64() >= 0.01 {
			quality[i] = string(rune('A' + rng.Intn(3)))
		}
	}
	cols = append(cols, StringColumn("recipe", recipe), StringColumn("quality", quality))
	var buf bytes.Buffer
	if err := MustNew(cols...).WriteCSV(&buf); err != nil {
		panic(err)
	}
	return buf.String()
}

// FuzzReadCSV checks the one-pass reader against the ReadAll reader with
// the old two-parse type inference: the same inputs fail, and the rest
// parse to bitwise identical frames.
func FuzzReadCSV(f *testing.F) {
	pinned := map[string]csvSeed{}
	for _, s := range csvSeeds() {
		f.Add([]byte(s.in))
		pinned[s.in] = s
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		got, err := ReadCSV(bytes.NewReader(in))
		ref, refErr := oracleReadCSV(bytes.NewReader(in))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("error %v, encoding/csv says %v", err, refErr)
		}
		s, ok := pinned[string(in)]
		if ok && s.fails && err == nil {
			t.Fatal("malformed input accepted")
		}
		if err != nil {
			return
		}
		if d := frameDiff(got, ref); d != "" {
			t.Fatalf("differs from the encoding/csv oracle: %s", d)
		}
		if ok && s.want != nil {
			if d := frameDiff(got, s.want); d != "" {
				t.Fatal(d)
			}
		}
	})
}

// TestReadCSVOwnsItsStrings checks that string cells are interned per
// column and share no memory with the input buffer.
func TestReadCSVOwnsItsStrings(t *testing.T) {
	buf := []byte("name,q\nR001,\"A\"\nR002,A\nR001,\"A\"\"\"\n")
	fr, err := parseCSV(buf)
	if err != nil {
		t.Fatal(err)
	}
	names := fr.Column(0).Strings
	if unsafe.StringData(names[0]) != unsafe.StringData(names[2]) {
		t.Fatal("repeated cell not interned")
	}
	for i := range buf {
		buf[i] = 'X'
	}
	if got := fmt.Sprint(names, fr.Column(1).Strings, fr.Names()); got != `[R001 R002 R001] [A A A"] [name q]` {
		t.Fatalf("cells changed with the buffer: %s", got)
	}
}

// TestWriteCSVMatchesFmt pins AsString's strconv rendering, and so
// WriteCSV's output, to fmt's %g and %d byte for byte, on the floats where
// the two could part.
func TestWriteCSVMatchesFmt(t *testing.T) {
	floats := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 1e21, 5e-324,
		0.1, 1.5, 2100, 123456789012, -1e-7, math.MaxFloat64}
	ints := make([]int64, len(floats))
	for i := range ints {
		ints[i] = int64(i-6) * 1e17
	}
	ints[0], ints[1] = math.MinInt64, math.MaxInt64
	na := make([]bool, len(floats))
	na[2] = true
	fr := MustNew(FloatColumn("f", floats), IntColumn("i", ints),
		&Column{Name: "g", Type: Float64, Floats: floats, NA: na})
	var got, want bytes.Buffer
	if err := fr.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	cw := csv.NewWriter(&want)
	_ = cw.Write(fr.Names())
	for i := range floats {
		g := fmt.Sprintf("%g", floats[i])
		if na[i] {
			g = ""
		}
		_ = cw.Write([]string{fmt.Sprintf("%g", floats[i]), fmt.Sprintf("%d", ints[i]), g})
	}
	cw.Flush()
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatalf("WriteCSV:\n%s\nfmt rendering:\n%s", got.Bytes(), want.Bytes())
	}
}

// BenchmarkReadCSV parses one site file of the raw-ingest shape (30 000
// rows of 20 signals, a recipe ID and a quality class).
func BenchmarkReadCSV(b *testing.B) {
	in := productionCSV(30000, 20)
	path := filepath.Join(b.TempDir(), "site.csv")
	if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(in)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadCSVFile(path); err != nil {
			b.Fatal(err)
		}
	}
}
