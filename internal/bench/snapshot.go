package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// Row is one measurement in a persisted benchmark snapshot (BENCH_*.json):
// the Measurement fields flattened to JSON-stable types.
type Row struct {
	Experiment string             `json:"experiment"`
	Algorithm  string             `json:"algorithm"`
	Mode       string             `json:"mode"`
	Workers    int                `json:"workers"`
	Seconds    float64            `json:"seconds"`
	Extra      map[string]float64 `json:"extra,omitempty"`
}

// Snapshot is a persisted set of benchmark rows.
type Snapshot struct {
	Name string `json:"name"`
	Rows []Row  `json:"rows"`
}

// NewSnapshot flattens measurements into a snapshot.
func NewSnapshot(name string, ms []Measurement) Snapshot {
	s := Snapshot{Name: name}
	for _, m := range ms {
		s.Rows = append(s.Rows, Row{
			Experiment: m.Experiment, Algorithm: m.Algorithm, Mode: string(m.Mode),
			Workers: m.Workers, Seconds: m.Elapsed.Seconds(), Extra: m.Extra,
		})
	}
	return s
}

// WriteFile persists the snapshot as indented JSON.
func (s Snapshot) WriteFile(path string) error {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// ReadSnapshot loads a persisted snapshot.
func ReadSnapshot(path string) (Snapshot, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return Snapshot{}, err
	}
	var s Snapshot
	if err := json.Unmarshal(b, &s); err != nil {
		return Snapshot{}, fmt.Errorf("bench: parse %s: %v", path, err)
	}
	return s, nil
}

// key identifies a row across snapshots.
func (r Row) key() string {
	return fmt.Sprintf("%s/%s/%s/%d", r.Experiment, r.Algorithm, r.Mode, r.Workers)
}

// encDec sums a row's encode and decode phase seconds; ok reports whether
// the row carries phase columns at all.
func (r Row) encDec() (float64, bool) {
	enc, eok := r.Extra["enc_s"]
	dec, dok := r.Extra["dec_s"]
	return enc + dec, eok || dok
}

// CompareEncDec is the CI regression gate on serialization cost: for every
// row present in both snapshots it fails when the current encode+decode
// phase seconds exceed max(maxRatio x baseline, floorSeconds). The floor
// absorbs scheduler noise on rows whose absolute cost is tiny — a 3 ms
// blip on a 1 ms baseline is not a regression worth failing CI over.
func CompareEncDec(base, cur Snapshot, maxRatio, floorSeconds float64) error {
	baseRows := map[string]Row{}
	for _, r := range base.Rows {
		baseRows[r.key()] = r
	}
	var bad []string
	matched := 0
	for _, r := range cur.Rows {
		b, ok := baseRows[r.key()]
		if !ok {
			continue
		}
		curED, curOK := r.encDec()
		baseED, baseOK := b.encDec()
		if !curOK || !baseOK {
			continue
		}
		matched++
		limit := maxRatio * baseED
		if limit < floorSeconds {
			limit = floorSeconds
		}
		if curED > limit {
			bad = append(bad, fmt.Sprintf("%s: enc+dec %.4fs > limit %.4fs (baseline %.4fs x %.1f)",
				r.key(), curED, limit, baseED, maxRatio))
		}
	}
	if matched == 0 {
		return fmt.Errorf("bench: no comparable rows between %q and %q", base.Name, cur.Name)
	}
	if len(bad) > 0 {
		return fmt.Errorf("bench: serialization regression:\n  %s", strings.Join(bad, "\n  "))
	}
	return nil
}
