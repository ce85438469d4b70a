package transform

import (
	"fmt"
	"sort"

	"exdra/internal/frame"
)

// Missing-value imputation primitives of ExDRa §4.4, Example 4: NULLs in a
// categorical column can be imputed with the mode (most frequent value) or
// via robust functional dependencies (A -> C). Both are two-pass federated
// algorithms: workers compute aggregate counts, the coordinator derives the
// imputation rule, and workers apply it locally (see
// federated.Frame.ImputeMode / ImputeFD).

// CategoryCounts counts the non-NULL values of a categorical column.
func CategoryCounts(f *frame.Frame, col string) (map[string]int, error) {
	c := f.ColumnByName(col)
	if c == nil {
		return nil, fmt.Errorf("transform: no column %q", col)
	}
	counts := map[string]int{}
	for i := 0; i < c.Len(); i++ {
		if c.IsNA(i) {
			continue
		}
		counts[c.AsString(i)]++
	}
	return counts, nil
}

// MergeCounts sums per-site category counts.
func MergeCounts(parts ...map[string]int) map[string]int {
	out := map[string]int{}
	for _, p := range parts {
		for k, v := range p {
			out[k] += v
		}
	}
	return out
}

// Mode returns the most frequent category (ties broken lexicographically
// for determinism across sites).
func Mode(counts map[string]int) (string, bool) {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	if len(keys) == 0 {
		return "", false
	}
	sort.Strings(keys)
	best := keys[0]
	for _, k := range keys[1:] {
		if counts[k] > counts[best] {
			best = k
		}
	}
	return best, true
}

// PairCounts counts co-occurrences of (from, to) categories over rows where
// both are present — the evidence for a robust functional dependency
// from -> to.
func PairCounts(f *frame.Frame, from, to string) (map[string]map[string]int, error) {
	cf, ct := f.ColumnByName(from), f.ColumnByName(to)
	if cf == nil || ct == nil {
		return nil, fmt.Errorf("transform: missing column %q or %q", from, to)
	}
	out := map[string]map[string]int{}
	for i := 0; i < cf.Len(); i++ {
		if cf.IsNA(i) || ct.IsNA(i) {
			continue
		}
		a, c := cf.AsString(i), ct.AsString(i)
		if out[a] == nil {
			out[a] = map[string]int{}
		}
		out[a][c]++
	}
	return out, nil
}

// MergePairCounts sums per-site pair counts.
func MergePairCounts(parts ...map[string]map[string]int) map[string]map[string]int {
	out := map[string]map[string]int{}
	for _, p := range parts {
		for a, row := range p {
			if out[a] == nil {
				out[a] = map[string]int{}
			}
			for c, n := range row {
				out[a][c] += n
			}
		}
	}
	return out
}

// FDMapping derives the robust functional dependency from -> to: each left
// value maps to its majority right value, provided the majority covers at
// least minSupport of the left value's rows (robustness against noise;
// minSupport <= 0 defaults to 0.5).
func FDMapping(pairs map[string]map[string]int, minSupport float64) map[string]string {
	if minSupport <= 0 {
		minSupport = 0.5
	}
	out := map[string]string{}
	for a, row := range pairs {
		mode, ok := Mode(row)
		if !ok {
			continue
		}
		total := 0
		for _, n := range row {
			total += n
		}
		if float64(row[mode]) >= minSupport*float64(total) {
			out[a] = mode
		}
	}
	return out
}

// ImputeMode returns a copy of the frame with NULLs of col replaced by
// value.
func ImputeMode(f *frame.Frame, col, value string) (*frame.Frame, error) {
	return imputeWith(f, col, func(i int, _ *frame.Frame) (string, bool) {
		return value, true
	})
}

// ImputeFD returns a copy with NULLs of toCol filled from mapping applied
// to fromCol; rows whose left value has no mapping stay NULL.
func ImputeFD(f *frame.Frame, fromCol, toCol string, mapping map[string]string) (*frame.Frame, error) {
	from := f.ColumnByName(fromCol)
	if from == nil {
		return nil, fmt.Errorf("transform: no column %q", fromCol)
	}
	return imputeWith(f, toCol, func(i int, _ *frame.Frame) (string, bool) {
		if from.IsNA(i) {
			return "", false
		}
		v, ok := mapping[from.AsString(i)]
		return v, ok
	})
}

// imputeWith rebuilds the frame with NULLs of col replaced by fill(i).
func imputeWith(f *frame.Frame, col string, fill func(i int, f *frame.Frame) (string, bool)) (*frame.Frame, error) {
	target := f.ColumnByName(col)
	if target == nil {
		return nil, fmt.Errorf("transform: no column %q", col)
	}
	if target.Type != frame.String {
		return nil, fmt.Errorf("transform: imputation target %q is not categorical", col)
	}
	cols := make([]*frame.Column, f.NumCols())
	for j := 0; j < f.NumCols(); j++ {
		c := f.Column(j)
		if c.Name != col {
			cols[j] = c
			continue
		}
		vals := make([]string, c.Len())
		for i := 0; i < c.Len(); i++ {
			if c.IsNA(i) {
				if v, ok := fill(i, f); ok {
					vals[i] = v
				}
			} else {
				vals[i] = c.AsString(i)
			}
		}
		cols[j] = frame.StringColumn(col, vals)
	}
	return frame.New(cols...)
}
