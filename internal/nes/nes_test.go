package nes

import (
	"os"
	"strings"
	"testing"

	"exdra/internal/data"
)

func tuples(vals ...float64) []Tuple {
	out := make([]Tuple, len(vals))
	for i, v := range vals {
		out[i] = Tuple{TS: int64(i), Values: []float64{v}}
	}
	return out
}

func testInstance(t *testing.T, caps ...int) (*Instance, *FileSink) {
	t.Helper()
	nodes := make([]*Node, len(caps))
	for i, c := range caps {
		nodes[i] = &Node{ID: string(rune('a' + i)), Capacity: c}
	}
	in := NewInstance(nodes)
	sink, err := NewFileSink("", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	in.RegisterSink("out", sink)
	return in, sink
}

func TestFilterMapWindow(t *testing.T) {
	in, sink := testInstance(t, 10)
	in.RegisterSource("sensor", func() Source {
		return NewSliceSource(tuples(1, 2, 3, 4, 5, 6, 7, 8))
	})
	_, err := in.Deploy(&Query{
		Name:   "q1",
		Source: "sensor",
		Ops: []Op{
			{Kind: OpFilter, Pred: func(t Tuple) bool { return t.Values[0] != 4 }},
			{Kind: OpMap, Fn: func(t Tuple) Tuple {
				t.Values[0] *= 10
				return t
			}},
			{Kind: OpWindowAgg, Size: 2, Agg: WindowMean},
		},
		SinkName: "out",
	})
	if err != nil {
		t.Fatal(err)
	}
	// Tuples 1,2,3,5,6,7,8 pass the filter, scaled x10, windows of 2:
	// (10+20)/2=15, (30+50)/2=40, (60+70)/2=65; trailing 80 stays buffered.
	snap := sink.Snapshot()
	if snap.Rows() != 3 {
		t.Fatalf("window count %d", snap.Rows())
	}
	want := []float64{15, 40, 65}
	for i, w := range want {
		if snap.At(i, 0) != w {
			t.Fatalf("window %d = %g want %g", i, snap.At(i, 0), w)
		}
	}
}

func TestWindowAggKinds(t *testing.T) {
	for _, tc := range []struct {
		kind WindowAggKind
		want float64
	}{
		{WindowSum, 6}, {WindowMean, 2}, {WindowMin, 1}, {WindowMax, 3},
	} {
		in, sink := testInstance(t, 10)
		in.RegisterSource("s", func() Source { return NewSliceSource(tuples(1, 2, 3)) })
		if _, err := in.Deploy(&Query{Name: "q", Source: "s",
			Ops:      []Op{{Kind: OpWindowAgg, Size: 3, Agg: tc.kind}},
			SinkName: "out"}); err != nil {
			t.Fatal(err)
		}
		if got := sink.Snapshot().At(0, 0); got != tc.want {
			t.Fatalf("agg %v = %g want %g", tc.kind, got, tc.want)
		}
	}
}

func TestPlacementRespectsCapacity(t *testing.T) {
	in, _ := testInstance(t, 2, 2)
	in.RegisterSource("s", func() Source { return NewSliceSource(nil) })
	q := &Query{Name: "q", Source: "s", SinkName: "out", Ops: []Op{
		{Kind: OpMap, Fn: func(t Tuple) Tuple { return t }, Cost: 2},
		{Kind: OpMap, Fn: func(t Tuple) Tuple { return t }, Cost: 2},
	}}
	p, err := in.Deploy(q)
	if err != nil {
		t.Fatal(err)
	}
	if p.Ops[0] == p.Ops[1] {
		t.Fatal("both operators on one node despite capacity 2")
	}
	// A third query with no remaining capacity must be rejected.
	q2 := &Query{Name: "q2", Source: "s", SinkName: "out", Ops: []Op{
		{Kind: OpMap, Fn: func(t Tuple) Tuple { return t }, Cost: 2},
	}}
	if _, err := in.Deploy(q2); err == nil {
		t.Fatal("over-capacity placement accepted")
	}
}

func TestDeployErrors(t *testing.T) {
	in, _ := testInstance(t, 4)
	if _, err := in.Deploy(&Query{Name: "q", Source: "missing", SinkName: "out"}); err == nil {
		t.Fatal("unknown source accepted")
	}
	in.RegisterSource("s", func() Source { return NewSliceSource(nil) })
	if _, err := in.Deploy(&Query{Name: "q", Source: "s", SinkName: "missing"}); err == nil {
		t.Fatal("unknown sink accepted")
	}
}

func TestRetentionByCountAndAge(t *testing.T) {
	s, err := NewFileSink("", 3, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range tuples(1, 2, 3, 4, 5) {
		s.Append(tp)
	}
	if s.Len() != 3 {
		t.Fatalf("count retention kept %d", s.Len())
	}
	if first := s.Snapshot().At(0, 0); first != 3 {
		t.Fatalf("oldest retained %g", first)
	}
	a, err := NewFileSink("", 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tp := range tuples(1, 2, 3, 4, 5) { // TS 0..4, keep TS >= 2
		a.Append(tp)
	}
	if a.Len() != 3 {
		t.Fatalf("age retention kept %d", a.Len())
	}
}

func TestSinkFilePersistence(t *testing.T) {
	path := t.TempDir() + "/sink.csv"
	s, err := NewFileSink(path, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s.Append(Tuple{TS: 7, Values: []float64{1.5, 2}})
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), "7,1.5,2") {
		t.Fatalf("sink file: %q", b)
	}
}

func TestMatrixSourceEndToEnd(t *testing.T) {
	// Fertilizer telemetry -> window means -> snapshot for training:
	// the exploratory acquisition path of §3.4.
	x, _ := data.FertilizerSensors(1, 120, 0.05)
	in, sink := testInstance(t, 8)
	in.RegisterSource("mill", func() Source { return NewMatrixSource(x) })
	if _, err := in.Deploy(&Query{Name: "acq", Source: "mill",
		Ops:      []Op{{Kind: OpWindowAgg, Size: 10, Agg: WindowMean}},
		SinkName: "out"}); err != nil {
		t.Fatal(err)
	}
	snap := sink.Snapshot()
	if snap.Rows() != 12 || snap.Cols() != 68 {
		t.Fatalf("snapshot %dx%d", snap.Rows(), snap.Cols())
	}
	// Snapshot is a copy: appending more must not change it.
	before := snap.Rows()
	sink.Append(Tuple{TS: 999, Values: make([]float64, 68)})
	if snap.Rows() != before {
		t.Fatal("snapshot not isolated")
	}
	if sink.Snapshot().Rows() != before+1 {
		t.Fatal("sink did not grow")
	}
}
