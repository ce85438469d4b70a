package federated

import (
	"fmt"

	"exdra/internal/fedrpc"
	"exdra/internal/matrix"
	"exdra/internal/privacy"
)

// Matrix is a federated matrix: the coordinator holds only the federation
// map; the raw partitions live in the symbol tables of the federated
// workers (Figure 2 of the paper).
type Matrix struct {
	c  *Coordinator
	fm FedMap
}

// Rows returns the federated matrix's total row count.
func (m *Matrix) Rows() int { return m.fm.Rows }

// Cols returns the federated matrix's total column count.
func (m *Matrix) Cols() int { return m.fm.Cols }

// Map returns a copy of the federation map.
func (m *Matrix) Map() FedMap {
	fm := m.fm
	fm.Partitions = append([]Partition(nil), m.fm.Partitions...)
	return fm
}

// Scheme returns the partitioning scheme.
func (m *Matrix) Scheme() Scheme { return m.fm.Scheme() }

// Coordinator returns the owning coordinator.
func (m *Matrix) Coordinator() *Coordinator { return m.c }

// String summarizes the federated matrix.
func (m *Matrix) String() string {
	return fmt.Sprintf("Federated(%dx%d, %d partitions, %s)",
		m.fm.Rows, m.fm.Cols, len(m.fm.Partitions), m.fm.Scheme())
}

// FromMap wraps an existing federation map (e.g. built by a worker-side
// pipeline step) as a federated matrix.
func FromMap(c *Coordinator, fm FedMap) (*Matrix, error) {
	if err := fm.Validate(); err != nil {
		return nil, err
	}
	return &Matrix{c: c, fm: fm}, nil
}

// Distribute partitions a local matrix evenly across worker addresses
// (row- or column-wise) and transfers the partitions via PUT under the
// given privacy level. It is the test/benchmark constructor; production
// deployments use Read, which never moves raw data.
func Distribute(c *Coordinator, x *matrix.Dense, addrs []string, scheme Scheme, level privacy.Level) (*Matrix, error) {
	return DistributeWithColumns(c, x, addrs, scheme, level, nil)
}

// DistributeWithColumns is Distribute with fine-grained per-column
// constraints (§4.1): colLevels assigns one privacy level per column
// (columns beyond the slice default to the coarse level). Slicing out only
// unrestricted columns of the federated matrix yields transferable data;
// any operation touching a restricted column stays restricted.
func DistributeWithColumns(c *Coordinator, x *matrix.Dense, addrs []string, scheme Scheme,
	level privacy.Level, colLevels []privacy.Level) (*Matrix, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("federated: no worker addresses")
	}
	n := len(addrs)
	fm := FedMap{Rows: x.Rows(), Cols: x.Cols()}
	total := x.Rows()
	if scheme == ColPartitioned {
		total = x.Cols()
	}
	if total < n {
		return nil, fmt.Errorf("federated: cannot split %d %s across %d workers",
			total, scheme, n)
	}
	beg := 0
	for i, addr := range addrs {
		size := total / n
		if i < total%n {
			size++
		}
		end := beg + size
		var r Range
		var part *matrix.Dense
		if scheme == ColPartitioned {
			r = Range{RowBeg: 0, RowEnd: x.Rows(), ColBeg: beg, ColEnd: end}
			part = x.SliceCols(beg, end)
		} else {
			r = Range{RowBeg: beg, RowEnd: end, ColBeg: 0, ColEnd: x.Cols()}
			part = x.SliceRows(beg, end)
		}
		id := c.NewID()
		var colPriv []int
		if len(colLevels) > 0 {
			for j := r.ColBeg; j < r.ColEnd; j++ {
				if j < len(colLevels) {
					colPriv = append(colPriv, int(colLevels[j]))
				} else {
					colPriv = append(colPriv, int(level))
				}
			}
		}
		if _, err := c.callOne(addr, fedrpc.Request{
			Type: fedrpc.Put, ID: id, Privacy: int(level), ColPrivacy: colPriv,
			Data: fedrpc.MatrixPayload(part),
		}); err != nil {
			// Reclaim the partitions already placed on other workers, and
			// this one (the failure may be a deferred request's that rode
			// along, not the PUT's), so an aborted distribute leaves no
			// worker-side state behind.
			c.sweep(append(fm.Partitions, Partition{Addr: addr, DataID: id}))
			return nil, err
		}
		fm.Partitions = append(fm.Partitions, Partition{Range: r, Addr: addr, DataID: id})
		beg = end
	}
	return FromMap(c, fm)
}

// Colocate places the rows of local y at m's workers, partitioned like m's
// rows, so that element-wise operations pair them with m where m lives. The
// PUTs are deferred like any reply-less operation: a y small enough for the
// outbox rides with the next read instead of costing a round trip. y is
// placed Public, since it comes from the coordinator.
func (m *Matrix) Colocate(y *matrix.Dense) (*Matrix, error) {
	if m.Scheme() != RowPartitioned || y.Rows() != m.Rows() {
		return nil, fmt.Errorf("federated: colocate %dx%d beside %dx%d %s, want as many rows and row partitioning",
			y.Rows(), y.Cols(), m.Rows(), m.Cols(), m.Scheme())
	}
	ids := m.newIDs()
	err := m.c.deferCall("colocate", m.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		return []fedrpc.Request{{Type: fedrpc.Put, ID: ids[i], Privacy: int(privacy.Public),
			Data: fedrpc.MatrixPayload(y.SliceRows(p.Range.RowBeg, p.Range.RowEnd))}}
	})
	if err != nil {
		return nil, err
	}
	return m.derive(m.Rows(), y.Cols(), ids, func(r Range) Range {
		return Range{RowBeg: r.RowBeg, RowEnd: r.RowEnd, ColBeg: 0, ColEnd: y.Cols()}
	}), nil
}

// ReadSpec names one raw file at one federated site.
type ReadSpec struct {
	Addr     string
	Filename string
	Privacy  privacy.Level
}

// ReadRowPartitioned builds a row-partitioned federated matrix from raw
// files at the federated sites (read-on-demand, §4.1): each worker READs
// its file locally; only the dimensions travel to the coordinator.
func ReadRowPartitioned(c *Coordinator, specs []ReadSpec) (*Matrix, error) {
	fm, err := readSites(c, specs)
	if err != nil {
		return nil, err
	}
	return FromMap(c, fm)
}

// readSites READs every site's file in one parallel round, each batch a
// READ plus obj_dims so that only the dimensions travel, and stacks the
// files row-wise. On any failure — a site's, reported for the lowest-indexed
// one, or sites that disagree on the column count — no READ binding is left
// at any site.
func readSites(c *Coordinator, specs []ReadSpec) (FedMap, error) {
	parts := make([]Partition, len(specs))
	for i, spec := range specs {
		parts[i] = Partition{Addr: spec.Addr, DataID: c.NewID()}
	}
	resps, err := c.parallelCall("read", parts, func(i int, p Partition) []fedrpc.Request {
		return []fedrpc.Request{
			{Type: fedrpc.Read, ID: p.DataID, Filename: specs[i].Filename, Privacy: int(specs[i].Privacy)},
			{Type: fedrpc.ExecUDF, UDF: &fedrpc.UDFCall{Name: "obj_dims", Inputs: []int64{p.DataID}}},
		}
	})
	if err != nil {
		return FedMap{}, err
	}
	fm := FedMap{Partitions: parts}
	for i, rs := range resps {
		dims := rs[1].Data.Matrix()
		rows, cols := int(dims.At(0, 0)), int(dims.At(0, 1))
		if i == 0 {
			fm.Cols = cols
		} else if cols != fm.Cols {
			c.sweep(parts)
			return FedMap{}, fmt.Errorf("federated: %s at %s has %d columns, want %d",
				specs[i].Filename, specs[i].Addr, cols, fm.Cols)
		}
		parts[i].Range = Range{RowBeg: fm.Rows, RowEnd: fm.Rows + rows, ColBeg: 0, ColEnd: cols}
		fm.Rows += rows
	}
	return fm, nil
}

// Consolidate transfers all partitions to the coordinator and assembles the
// local matrix — the transparent pin-into-memory path of §4.1. Workers
// refuse the transfer if it violates privacy constraints.
func (m *Matrix) Consolidate() (*matrix.Dense, error) {
	out := matrix.NewDense(m.fm.Rows, m.fm.Cols)
	resps, err := m.c.parallelCall("consolidate", m.fm.Partitions, func(i int, p Partition) []fedrpc.Request {
		return []fedrpc.Request{{Type: fedrpc.Get, ID: p.DataID}}
	})
	if err != nil {
		return nil, err
	}
	for i, p := range m.fm.Partitions {
		part := resps[i][0].Data.Matrix()
		if part == nil {
			return nil, fmt.Errorf("federated: partition %d returned no matrix", i)
		}
		if part.Rows() != p.Range.NumRows() || part.Cols() != p.Range.NumCols() {
			return nil, fmt.Errorf("federated: partition %d is %dx%d, map says %dx%d",
				i, part.Rows(), part.Cols(), p.Range.NumRows(), p.Range.NumCols())
		}
		out.SetSlice(p.Range.RowBeg, p.Range.ColBeg, part)
	}
	return out, nil
}

// Free releases the worker-side partitions of this federated matrix
// (rmvar), keeping the workers' memory bounded across long sessions.
func (m *Matrix) Free() error { return Free(m) }

// Free releases the worker-side partitions of the given federated matrices
// (all of one coordinator) with one rmvar per worker, however many matrices
// are named. The rmvars are deferred like any reply-less operation: freeing
// costs no round trip, the objects disappear with the next call or two to
// each worker (or Coordinator.Flush).
func Free(ms ...*Matrix) error {
	if len(ms) == 0 {
		return nil
	}
	var objs []Partition
	for _, m := range ms {
		objs = append(objs, m.fm.Partitions...)
	}
	return ms[0].c.remove("free", objs)
}

// derive builds a result federated matrix over new per-partition data IDs
// with ranges transformed by fn.
func (m *Matrix) derive(rows, cols int, ids []int64, fn func(Range) Range) *Matrix {
	fm := FedMap{Rows: rows, Cols: cols}
	for i, p := range m.fm.Partitions {
		fm.Partitions = append(fm.Partitions, Partition{
			Range: fn(p.Range), Addr: p.Addr, DataID: ids[i],
		})
	}
	return &Matrix{c: m.c, fm: fm}
}

// newIDs allocates one fresh data ID per partition.
func (m *Matrix) newIDs() []int64 {
	ids := make([]int64, len(m.fm.Partitions))
	for i := range ids {
		ids[i] = m.c.NewID()
	}
	return ids
}

// RBindFed logically concatenates two federated matrices row-wise. This is
// a metadata-only operation: no worker data moves (the "logical rbind" of
// Example 2 in the paper).
func RBindFed(a, b *Matrix) (*Matrix, error) {
	if a.Cols() != b.Cols() {
		return nil, fmt.Errorf("federated: rbind column mismatch %d vs %d", a.Cols(), b.Cols())
	}
	fm := FedMap{Rows: a.Rows() + b.Rows(), Cols: a.Cols()}
	fm.Partitions = append(fm.Partitions, a.fm.Partitions...)
	for _, p := range b.fm.Partitions {
		p.Range.RowBeg += a.Rows()
		p.Range.RowEnd += a.Rows()
		fm.Partitions = append(fm.Partitions, p)
	}
	return FromMap(a.c, fm)
}

// CBindFed logically concatenates two federated matrices column-wise
// (metadata only).
func CBindFed(a, b *Matrix) (*Matrix, error) {
	if a.Rows() != b.Rows() {
		return nil, fmt.Errorf("federated: cbind row mismatch %d vs %d", a.Rows(), b.Rows())
	}
	fm := FedMap{Rows: a.Rows(), Cols: a.Cols() + b.Cols()}
	fm.Partitions = append(fm.Partitions, a.fm.Partitions...)
	for _, p := range b.fm.Partitions {
		p.Range.ColBeg += a.Cols()
		p.Range.ColEnd += a.Cols()
		fm.Partitions = append(fm.Partitions, p)
	}
	return FromMap(a.c, fm)
}
