package fedrpc

import (
	"errors"
	"testing"

	"exdra/internal/matrix"
	"exdra/internal/netem"
)

// TestCloseIdempotentAfterBroken pins the Close contract across the broken
// state: a client whose transport already died (injected reset) can be
// closed any number of times, releasing resources exactly once, and every
// later operation fails with the typed ErrClosed instead of redialing.
func TestCloseIdempotentAfterBroken(t *testing.T) {
	s, _ := startServer(t, Options{})
	faults := netem.NewFaults(netem.FaultConfig{Seed: 3, ConnResets: 1, ResetAfterBytes: 256})
	c, err := Dial(s.Addr(), Options{Netem: netem.Config{Faults: faults}})
	if err != nil {
		t.Fatal(err)
	}
	payload := MatrixPayload(matrix.Fill(16, 16, 1)) // ~2 KB: crosses the threshold
	if _, err := c.Call(Request{Type: Put, ID: 1, Data: payload}); !errors.Is(err, netem.ErrInjectedReset) {
		t.Fatalf("want injected reset, got: %v", err)
	}
	if !c.Broken() {
		t.Fatal("client not broken after injected reset")
	}
	// Close on a broken client: the transport is already gone, so there is
	// nothing left to release — both calls must succeed and stay final.
	if err := c.Close(); err != nil {
		t.Fatalf("Close after broken: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if c.Broken() {
		t.Fatal("closed client reported broken")
	}
	if _, err := c.Call(Request{Type: Get, ID: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Call after Close = %v, want ErrClosed (no redial)", err)
	}
}

// TestCloseReturnsErrClosedTyped: a live client closed once also yields
// the typed sentinel on further use.
func TestCloseReturnsErrClosedTyped(t *testing.T) {
	s, _ := startServer(t, Options{})
	c, err := Dial(s.Addr(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("repeated Close: %v", err)
	}
	_, err = c.Call(Request{Type: Get, ID: 1})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Call after Close = %v, want ErrClosed", err)
	}
}
