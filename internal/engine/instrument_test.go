package engine_test

import (
	"sync"
	"testing"
	"time"

	"exdra/internal/engine"
	"exdra/internal/matrix"
	"exdra/internal/obs"
)

func TestInstrumentationHookObservesOps(t *testing.T) {
	reg := obs.New()
	engine.SetInstrumentation(engine.OpTimer(reg, "engine.op_seconds."))
	defer engine.SetInstrumentation(nil)

	a := matrix.NewDense(4, 3)
	b := matrix.NewDense(3, 2)
	_ = engine.MatMul(a, b)
	_ = engine.QueueTSMM(a).Value()
	_ = engine.Sum(a)

	snap := reg.Snapshot()
	for _, name := range []string{"engine.op_seconds.mm", "engine.op_seconds.tsmm", "engine.op_seconds.agg"} {
		if snap.Histograms[name].Count < 1 {
			t.Fatalf("%s not observed: %v", name, snap.Histograms)
		}
	}
}

func TestInstrumentationOffByDefault(t *testing.T) {
	var mu sync.Mutex
	seen := 0
	engine.SetInstrumentation(func(string, time.Duration) { mu.Lock(); seen++; mu.Unlock() })
	engine.SetInstrumentation(nil)
	_ = engine.QueueTSMM(matrix.NewDense(2, 2)).Value()
	mu.Lock()
	defer mu.Unlock()
	if seen != 0 {
		t.Fatalf("cleared hook still fired %d times", seen)
	}
}
