// Package nes implements the streaming-data-acquisition substrate of ExDRa
// (§3.4): a NebulaStream-like system with a per-site coordinator, a
// decentralized topology of heterogeneous nodes, continuous queries
// (filter, map, tumbling-window aggregation) over sensor sources, operator
// placement with re-optimization, and buffered file sinks with retention
// periods from which ML training sessions read consistent in-memory
// snapshots.
package nes

import (
	"fmt"
	"sync"

	"exdra/internal/matrix"
)

// Tuple is one timestamped multi-channel reading.
type Tuple struct {
	TS     int64 // logical timestamp (e.g. seconds since stream start)
	Values []float64
}

// Source produces a stream of tuples. Next returns ok=false at end of
// stream (unbounded sources return false only after Stop).
type Source interface {
	Next() (Tuple, bool)
}

// SliceSource replays a fixed set of tuples (deterministic tests and
// replay of recorded sensor data).
type SliceSource struct {
	tuples []Tuple
	pos    int
}

// NewSliceSource wraps tuples as a bounded source.
func NewSliceSource(tuples []Tuple) *SliceSource { return &SliceSource{tuples: tuples} }

// Next returns the next tuple.
func (s *SliceSource) Next() (Tuple, bool) {
	if s.pos >= len(s.tuples) {
		return Tuple{}, false
	}
	t := s.tuples[s.pos]
	s.pos++
	return t, true
}

// MatrixSource streams the rows of a matrix (one tuple per row), e.g. the
// fertilizer sensor matrix of package data.
type MatrixSource struct {
	m   *matrix.Dense
	pos int
}

// NewMatrixSource wraps a matrix as a bounded source.
func NewMatrixSource(m *matrix.Dense) *MatrixSource { return &MatrixSource{m: m} }

// Next returns the next row as a tuple.
func (s *MatrixSource) Next() (Tuple, bool) {
	if s.pos >= s.m.Rows() {
		return Tuple{}, false
	}
	row := make([]float64, s.m.Cols())
	copy(row, s.m.Row(s.pos))
	t := Tuple{TS: int64(s.pos), Values: row}
	s.pos++
	return t, true
}

// OpKind enumerates continuous-query operators.
type OpKind int

// Continuous-query operator kinds.
const (
	OpFilter OpKind = iota
	OpMap
	OpWindowAgg
)

// WindowAggKind selects the per-channel aggregation of a tumbling window.
type WindowAggKind int

// Window aggregations.
const (
	WindowMean WindowAggKind = iota
	WindowSum
	WindowMin
	WindowMax
)

// Op is one operator of a continuous query.
type Op struct {
	Kind OpKind
	// Filter keeps tuples for which Pred returns true.
	Pred func(Tuple) bool
	// Map transforms tuples (e.g. unit conversion, channel selection).
	Fn func(Tuple) Tuple
	// WindowAgg groups Size consecutive tuples and emits one aggregated
	// tuple per window (tumbling windows over logical time order).
	Size int
	Agg  WindowAggKind
	// Cost is the operator's abstract resource demand for placement.
	Cost int
}

// Query is a continuous query: a named source, an operator chain, and a
// sink name.
type Query struct {
	Name     string
	Source   string
	Ops      []Op
	SinkName string
}

// apply pushes a tuple through the operator chain, using state for window
// accumulation; emitted tuples are appended to out.
type opState struct {
	buf []Tuple
}

func applyOps(ops []Op, states []*opState, t Tuple, out *[]Tuple) {
	emit := []Tuple{t}
	for i, op := range ops {
		var next []Tuple
		for _, tu := range emit {
			switch op.Kind {
			case OpFilter:
				if op.Pred(tu) {
					next = append(next, tu)
				}
			case OpMap:
				next = append(next, op.Fn(tu))
			case OpWindowAgg:
				st := states[i]
				st.buf = append(st.buf, tu)
				if len(st.buf) >= op.Size {
					next = append(next, aggregateWindow(st.buf, op.Agg))
					st.buf = st.buf[:0]
				}
			}
		}
		emit = next
		if len(emit) == 0 {
			return
		}
	}
	*out = append(*out, emit...)
}

func aggregateWindow(window []Tuple, kind WindowAggKind) Tuple {
	k := len(window[0].Values)
	out := Tuple{TS: window[len(window)-1].TS, Values: make([]float64, k)}
	for j := 0; j < k; j++ {
		switch kind {
		case WindowSum, WindowMean:
			s := 0.0
			for _, t := range window {
				s += t.Values[j]
			}
			if kind == WindowMean {
				s /= float64(len(window))
			}
			out.Values[j] = s
		case WindowMin:
			m := window[0].Values[j]
			for _, t := range window[1:] {
				if t.Values[j] < m {
					m = t.Values[j]
				}
			}
			out.Values[j] = m
		case WindowMax:
			m := window[0].Values[j]
			for _, t := range window[1:] {
				if t.Values[j] > m {
					m = t.Values[j]
				}
			}
			out.Values[j] = m
		}
	}
	return out
}

// Node is one topology node with a resource capacity.
type Node struct {
	ID       string
	Capacity int

	mu   sync.Mutex
	load int // guarded by mu
}

// Load returns the node's current placement load.
func (n *Node) Load() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.load
}

// Placement records which node executes which operator of a query.
type Placement struct {
	Query string
	Ops   []string // node ID per operator
}

// Instance is a per-federated-site NES deployment: a coordinator plus a
// decentralized node topology. Queries are deployed onto the topology with
// a greedy least-loaded placement that can be re-optimized as queries come
// and go (the paper's operator re-assignment under topology changes).
type Instance struct {
	mu         sync.Mutex
	nodes      []*Node                  // slice immutable after NewInstance; Node.load has its own lock
	sources    map[string]func() Source // guarded by mu
	sinks      map[string]*FileSink     // guarded by mu
	queries    map[string]*Query        // guarded by mu
	placements map[string]*Placement    // guarded by mu
}

// NewInstance builds an instance over the given topology nodes.
func NewInstance(nodes []*Node) *Instance {
	return &Instance{
		nodes:      nodes,
		sources:    map[string]func() Source{},
		sinks:      map[string]*FileSink{},
		queries:    map[string]*Query{},
		placements: map[string]*Placement{},
	}
}

// RegisterSource registers a logical stream by name; the factory is invoked
// per deployed query (inbound adapters like OPC would sit here).
func (in *Instance) RegisterSource(name string, factory func() Source) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.sources[name] = factory
}

// RegisterSink registers a buffered file sink by name.
func (in *Instance) RegisterSink(name string, sink *FileSink) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.sinks[name] = sink
}

// place assigns each operator to the least-loaded node with capacity.
func (in *Instance) place(q *Query) (*Placement, error) {
	p := &Placement{Query: q.Name}
	for _, op := range q.Ops {
		cost := op.Cost
		if cost == 0 {
			cost = 1
		}
		var best *Node
		for _, n := range in.nodes {
			n.mu.Lock()
			ok := n.load+cost <= n.Capacity
			n.mu.Unlock()
			if !ok {
				continue
			}
			if best == nil || n.Load() < best.Load() {
				best = n
			}
		}
		if best == nil {
			return nil, fmt.Errorf("nes: no node with capacity %d for query %q", cost, q.Name)
		}
		best.mu.Lock()
		best.load += cost
		best.mu.Unlock()
		p.Ops = append(p.Ops, best.ID)
	}
	return p, nil
}

// Deploy places and synchronously executes a continuous query: the bounded
// source is drained through the operator chain into the sink. (Production
// NES runs unbounded; the simulator's bounded execution makes tests and
// experiments deterministic while exercising the same operator logic.)
func (in *Instance) Deploy(q *Query) (*Placement, error) {
	in.mu.Lock()
	factory, ok := in.sources[q.Source]
	sink := in.sinks[q.SinkName]
	in.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("nes: unknown source %q", q.Source)
	}
	if sink == nil {
		return nil, fmt.Errorf("nes: unknown sink %q", q.SinkName)
	}
	in.mu.Lock()
	placement, err := in.place(q)
	if err != nil {
		in.mu.Unlock()
		return nil, err
	}
	in.queries[q.Name] = q
	in.placements[q.Name] = placement
	in.mu.Unlock()

	src := factory()
	states := make([]*opState, len(q.Ops))
	for i := range states {
		states[i] = &opState{}
	}
	var out []Tuple
	for {
		t, ok := src.Next()
		if !ok {
			break
		}
		out = out[:0]
		applyOps(q.Ops, states, t, &out)
		for _, o := range out {
			sink.Append(o)
		}
	}
	return placement, nil
}
