package paramserv_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"exdra/internal/data"
	"exdra/internal/paramserv"
)

// trainLocalWeightsSHA256 is the hash of the weights TestTrainLocalWeightsPinned
// trains, as the row-at-a-time kernels and an FFN that still computed its
// first layer's input gradient produced them.
const trainLocalWeightsSHA256 = "6b74b40f6e7120a19627ef03b1da9252af14eaab33c10d3be18ae71c31a228a9"

// TestTrainLocalWeightsPinned: a seeded BSP run leaves bit for bit the
// weights it always has, so a kernel or layer change that moves one bit of
// FFN training fails here. The hash is amd64's; an architecture that fuses
// multiply-adds reaches other bits.
func TestTrainLocalWeightsPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("the pinned hash is amd64's, not %s's", runtime.GOARCH)
	}
	x, y := data.MultiClass(20, 600, 10, 3)
	res, err := paramserv.TrainLocal(ffnCfg(10, 3, paramserv.BSP), x, y, 4)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, p := range res.Network.Params() {
		for _, v := range p.Data() {
			h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != trainLocalWeightsSHA256 {
		t.Fatalf("weights hash %s, want %s", got, trainLocalWeightsSHA256)
	}
}
