package fedtest

import (
	"testing"
	"time"

	"exdra/internal/fedrpc"
	"exdra/internal/netem"
)

func TestStartDefaultsAndClose(t *testing.T) {
	cl, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if len(cl.Workers) != 3 || len(cl.Addrs) != 3 {
		t.Fatalf("default cluster size %d", len(cl.Workers))
	}
	addr := cl.Addrs[0]
	if _, err := cl.Coord.Call(addr, fedrpc.Request{Type: fedrpc.Put, ID: 1, Data: fedrpc.ScalarPayload(1)}); err != nil {
		t.Fatal(err)
	}
	cl.Close()
	// After Close, calls fail.
	if _, err := cl.Coord.Call(addr, fedrpc.Request{Type: fedrpc.Get, ID: 1}); err == nil {
		t.Fatal("call succeeded after Close")
	}
}

func TestStartWithTLSAndNetem(t *testing.T) {
	cl, err := Start(Config{Workers: 1, TLS: true, Netem: netem.Config{RTT: 20 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	start := time.Now()
	if _, err := cl.Coord.Call(cl.Addrs[0], fedrpc.Request{Type: fedrpc.Put, ID: 1, Data: fedrpc.ScalarPayload(2)}); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 10*time.Millisecond {
		t.Fatal("netem not applied through the cluster config")
	}
}

func TestBaseDirs(t *testing.T) {
	dir := t.TempDir()
	cl, err := Start(Config{Workers: 2, BaseDirs: []string{dir}})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Worker 0 has a data dir, worker 1 does not: READ fails there.
	resps, err := cl.Coord.Call(cl.Addrs[1], fedrpc.Request{Type: fedrpc.Read, ID: 1, Filename: "x.bin"})
	if err != nil {
		t.Fatal(err)
	}
	if resps[0].OK {
		t.Fatal("READ without data dir succeeded")
	}
}
