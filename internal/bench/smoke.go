package bench

import (
	"exdra/internal/obs"
)

// SmokeScale is the fixed workload of the CI bench smoke: small enough to
// finish in seconds, matrix-heavy enough (a ~3 MB feature matrix moved
// repeatedly) that the encode/decode phases dominate and a serialization
// regression is visible above noise. Deliberately independent of
// DefaultScale and the EXDRA_* env knobs so the committed BENCH_smoke.json
// stays comparable across machines and runs.
func SmokeScale() Scale {
	return Scale{
		Rows: 4000, Cols: 100,
		KMeansK: 4, PCAK: 4,
		FFNEpochs: 1, FFNBatch: 256, FFNHidden: 16,
		CNNRows: 64, CNNEpochs: 1, CNNBatch: 32, CNNFilters: 2,
		PipeRows: 500, PipeSignals: 8, PipeRecipes: 10,
		Seed: 42,
	}
}

// Smoke runs the CI bench smoke: the pure transfer microbenchmark plus a
// short LM training run, FedLAN with two workers, counters isolated in a
// fresh registry. The resulting rows feed BENCH_smoke.json and the ci.sh
// CompareEncDec gate.
func Smoke() ([]Measurement, error) {
	w := NewWorkloads(SmokeScale())
	env := Env{Mode: FedLAN, Workers: 2, Metrics: obs.New()}
	cl, err := env.Cluster()
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	xfer, err := w.RunTransfer(env, cl, 5)
	if err != nil {
		return nil, err
	}
	lm, err := w.RunAlgorithm("lm", env, cl)
	if err != nil {
		return nil, err
	}
	return []Measurement{xfer, lm}, nil
}

// WireBench produces the wire-format cost rows (BENCH_wire_binary.json):
// the transfer microbenchmark plus LM and K-Means under FedLAN and FedWAN,
// two workers each, counters isolated per cluster; the enc_s/dec_s columns
// are what the wire format costs.
func WireBench() ([]Measurement, error) {
	w := NewWorkloads(SmokeScale())
	var out []Measurement
	for _, mode := range []Mode{FedLAN, FedWAN} {
		env := Env{Mode: mode, Workers: 2, Metrics: obs.New()}
		cl, err := env.Cluster()
		if err != nil {
			return nil, err
		}
		reps := 3
		if mode == FedWAN {
			reps = 2 // the emulated 1.7 MB/s link makes each rep seconds-long
		}
		xfer, err := w.RunTransfer(env, cl, reps)
		if err != nil {
			cl.Close()
			return nil, err
		}
		out = append(out, xfer)
		for _, alg := range []string{"lm", "kmeans"} {
			m, err := w.RunAlgorithm(alg, env, cl)
			if err != nil {
				cl.Close()
				return nil, err
			}
			out = append(out, m)
		}
		cl.Close()
	}
	return out, nil
}
