package expdb

import (
	"fmt"
	"hash/fnv"
	"math"
	"sort"

	"exdra/internal/matrix"
)

// The recommendation engine of §3.3: pipeline metadata is embedded into a
// fixed-size vector (operator-type counts, hashed parameter buckets, and
// dataset characteristics), and a ridge-regression model trained on past
// runs predicts a score for each candidate. Given a task and dataset, the
// engine returns a ranked list of pipelines for exploration.

// embedDim is the embedding width: one slot per operator type, a bucketed
// parameter hash region, and a dataset-statistics region.
const (
	paramBuckets = 16
	statSlots    = 4
	embedDim     = 8 /* op types */ + paramBuckets + statSlots + 1 /* bias */
)

// Candidate is a pipeline candidate for recommendation scoring.
type Candidate struct {
	PipelineID string
	Steps      []Step
	Params     map[string]string
}

// embed maps steps, parameters, and dataset statistics into the fixed
// embedding space.
func embed(steps []Step, params map[string]string, stats map[string]float64) []float64 {
	v := make([]float64, embedDim)
	for _, st := range steps {
		typ := st.Type
		if typ == "" {
			typ = Categorize(st.Name)
		}
		for i, t := range AllOperatorTypes {
			if typ == t {
				v[i]++
			}
		}
		// Hash the concrete step name as well, so pipelines with the same
		// operator types but different concrete steps stay distinguishable.
		h := fnv.New32a()
		h.Write([]byte("step:" + st.Name))
		v[8+int(h.Sum32()%paramBuckets)]++
	}
	for key, val := range params {
		h := fnv.New32a()
		h.Write([]byte(key + "=" + val))
		v[8+int(h.Sum32()%paramBuckets)]++
	}
	// Dataset characteristics: log-scaled rows/cols, sparsity, class count.
	base := 8 + paramBuckets
	v[base] = math.Log1p(stats["rows"])
	v[base+1] = math.Log1p(stats["cols"])
	v[base+2] = stats["sparsity"]
	v[base+3] = stats["classes"]
	v[embedDim-1] = 1 // bias
	return v
}

// Recommender scores pipeline candidates from the history of tracked runs.
type Recommender struct {
	store  *Store
	metric string
	w      *matrix.Dense // embedDim x 1 ridge weights
}

// NewRecommender fits a ridge-regression scoring model on all runs carrying
// the target metric. At least two such runs are required.
func NewRecommender(store *Store, metric string, lambda float64) (*Recommender, error) {
	runs := store.Query(func(r *Run) bool { _, ok := r.Metrics[metric]; return ok })
	if len(runs) < 2 {
		return nil, fmt.Errorf("expdb: need at least 2 runs with metric %q, have %d", metric, len(runs))
	}
	if lambda <= 0 {
		lambda = 1e-2
	}
	x := matrix.NewDense(len(runs), embedDim)
	y := matrix.NewDense(len(runs), 1)
	for i, r := range runs {
		copy(x.Row(i), embed(r.Steps, r.Params, r.DataStats))
		y.Set(i, 0, r.Metrics[metric])
	}
	// Ridge: (XᵀX + lambda I) w = Xᵀ y.
	a := x.TSMM()
	for i := 0; i < embedDim; i++ {
		a.Set(i, i, a.At(i, i)+lambda)
	}
	b := x.TMatMul(y)
	w, ok := matrix.SolveCholesky(a, b)
	if !ok {
		w, _ = matrix.SolveCG(a, b, 1e-10, 4*embedDim)
	}
	return &Recommender{store: store, metric: metric, w: w}, nil
}

// Score predicts the metric for a candidate on a dataset.
func (r *Recommender) Score(c Candidate, stats map[string]float64) float64 {
	e := embed(c.Steps, c.Params, stats)
	s := 0.0
	for i, v := range e {
		s += v * r.w.At(i, 0)
	}
	return s
}

// Ranked is one recommendation.
type Ranked struct {
	Candidate Candidate
	Score     float64
}

// Recommend returns candidates ranked by predicted metric, best first.
func (r *Recommender) Recommend(candidates []Candidate, stats map[string]float64) []Ranked {
	out := make([]Ranked, len(candidates))
	for i, c := range candidates {
		out[i] = Ranked{Candidate: c, Score: r.Score(c, stats)}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Score > out[j].Score })
	return out
}
