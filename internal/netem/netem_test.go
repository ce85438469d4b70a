package netem

import (
	"errors"
	"io"
	"net"
	"os"
	"testing"
	"time"
)

// pipeConns returns a connected TCP pair on loopback.
func pipeConns(t *testing.T) (client, server net.Conn) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	done := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			done <- c
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	s := <-done
	t.Cleanup(func() { c.Close(); s.Close() })
	return c, s
}

func TestZeroConfigPassThrough(t *testing.T) {
	c, _ := pipeConns(t)
	if Wrap(c, Config{}) != c {
		t.Fatal("zero config should not wrap")
	}
	if LAN().Enabled() {
		t.Fatal("LAN should be a perfect link")
	}
	if !WAN().Enabled() {
		t.Fatal("WAN must inject delay")
	}
}

func TestLatencyInjection(t *testing.T) {
	c, s := pipeConns(t)
	wc := Wrap(c, Config{RTT: 40 * time.Millisecond})
	buf := make([]byte, 4)
	go func() {
		wc.Write([]byte("ping"))
	}()
	start := time.Now()
	if _, err := s.Read(buf); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("one-way latency not applied: %v", d)
	}
}

func TestBurstLatencyChargedOnce(t *testing.T) {
	c, s := pipeConns(t)
	wc := Wrap(c, Config{RTT: 40 * time.Millisecond})
	go func() {
		// Three writes within the burst gap: one latency charge total.
		wc.Write([]byte("a"))
		wc.Write([]byte("b"))
		wc.Write([]byte("c"))
	}()
	buf := make([]byte, 3)
	start := time.Now()
	total := 0
	for total < 3 {
		n, err := s.Read(buf[total:])
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if d := time.Since(start); d > 70*time.Millisecond {
		t.Fatalf("latency charged per write, not per burst: %v", d)
	}
}

func TestBandwidthThrottling(t *testing.T) {
	c, s := pipeConns(t)
	// 1 MB/s: 100 KB should take ~100 ms.
	wc := Wrap(c, Config{BandwidthBps: 1e6})
	payload := make([]byte, 100*1024)
	go func() {
		wc.Write(payload)
	}()
	buf := make([]byte, len(payload))
	start := time.Now()
	total := 0
	for total < len(payload) {
		n, err := s.Read(buf[total:])
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	d := time.Since(start)
	if d < 60*time.Millisecond {
		t.Fatalf("bandwidth not throttled: %v", d)
	}
	if d > 500*time.Millisecond {
		t.Fatalf("throttling too aggressive: %v", d)
	}
}

// TestBandwidthIndependentOfWriteSize: a sender that writes a message in
// 64 KiB pieces gets the bandwidth of one that writes it whole. Each
// piece's emulated delay wakes its writer late by the timer's slack; that
// lateness is not idle link time, so it must not add up over the pieces.
func TestBandwidthIndependentOfWriteSize(t *testing.T) {
	if testing.Short() {
		t.Skip("timing-sensitive link emulation")
	}
	c, s := pipeConns(t)
	go func() { _, _ = io.Copy(io.Discard, s) }()
	// 20 MB/s: 2 MB occupies the link for 100 ms.
	wc := Wrap(c, Config{RTT: 10 * time.Millisecond, BandwidthBps: 20e6})
	payload := make([]byte, 2<<20)
	send := func(piece int) time.Duration {
		time.Sleep(10 * time.Millisecond) // a new burst
		start := time.Now()
		for off := 0; off < len(payload); off += piece {
			if _, err := wc.Write(payload[off : off+piece]); err != nil {
				t.Fatal(err)
			}
		}
		return time.Since(start)
	}
	whole, pieces := send(len(payload)), send(64<<10)
	t.Logf("2 MB at 20 MB/s: one write %v, 32 writes %v", whole, pieces)
	if pieces > whole+20*time.Millisecond {
		t.Fatalf("32 writes took %v against %v for one: every write's timer slack became idle link time", pieces, whole)
	}
}

// TestReadReportsInjectedFault: once an injected fault killed the
// connection, a read on it fails with that fault, not with the bare
// closed-connection error the teardown leaves behind.
func TestReadReportsInjectedFault(t *testing.T) {
	c, _ := pipeConns(t)
	faults := NewFaults(FaultConfig{Truncations: 1, TruncateAfterBytes: 2})
	wc := Wrap(c, Config{Faults: faults})
	if _, err := wc.Write([]byte("slab")); !errors.Is(err, ErrInjectedTruncation) {
		t.Fatalf("want injected truncation, got %v", err)
	}
	if _, err := wc.Read(make([]byte, 4)); !errors.Is(err, ErrInjectedTruncation) {
		t.Fatalf("read after the truncation = %v, want ErrInjectedTruncation", err)
	}
}

func TestWrapListener(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	wrapped := WrapListener(ln, Config{RTT: 10 * time.Millisecond})
	if wrapped == ln {
		t.Fatal("listener not wrapped")
	}
	if same := WrapListener(ln, Config{}); same != ln {
		t.Fatal("zero config should not wrap listener")
	}
	go func() {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err == nil {
			c.Write([]byte("x"))
			c.Close()
		}
	}()
	conn, err := wrapped.Accept()
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	ln.Close()
}

func TestInjectedResetAfterBytes(t *testing.T) {
	c, _ := pipeConns(t)
	faults := NewFaults(FaultConfig{Seed: 1, ConnResets: 1, ResetAfterBytes: 8})
	wc := Wrap(c, Config{Faults: faults})
	if _, err := wc.Write([]byte("1234")); err != nil {
		t.Fatalf("below threshold: %v", err)
	}
	if _, err := wc.Write([]byte("5678")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("want injected reset at threshold, got %v", err)
	}
	// The conn is dead for good: later writes keep failing.
	if _, err := wc.Write([]byte("x")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("reset not sticky: %v", err)
	}
	if s := faults.Stats(); s.Resets != 1 {
		t.Fatalf("stats = %+v, want 1 reset", s)
	}
	// The budget is spent: a redialed connection is not reset again.
	c2, _ := pipeConns(t)
	wc2 := Wrap(c2, Config{Faults: faults})
	if _, err := wc2.Write(make([]byte, 64)); err != nil {
		t.Fatalf("reset fired beyond its budget: %v", err)
	}
}

func TestInjectedOneShotDrop(t *testing.T) {
	c, _ := pipeConns(t)
	faults := NewFaults(FaultConfig{Drops: 1})
	wc := Wrap(c, Config{Faults: faults})
	if _, err := wc.Write([]byte("x")); !errors.Is(err, ErrInjectedDrop) {
		t.Fatalf("want injected drop, got %v", err)
	}
	c2, _ := pipeConns(t)
	wc2 := Wrap(c2, Config{Faults: faults})
	if _, err := wc2.Write([]byte("x")); err != nil {
		t.Fatalf("drop budget not one-shot: %v", err)
	}
	if s := faults.Stats(); s.Drops != 1 {
		t.Fatalf("stats = %+v, want 1 drop", s)
	}
}

func TestStallWindowTripsWriteDeadline(t *testing.T) {
	c, _ := pipeConns(t)
	faults := NewFaults(FaultConfig{Stalls: 1, StallFor: 5 * time.Second})
	wc := Wrap(c, Config{Faults: faults})
	if err := wc.SetDeadline(time.Now().Add(50 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := wc.Write([]byte("x"))
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want deadline error from stalled write, got %v", err)
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("stall error is not a net timeout: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("stall ignored the deadline: blocked %v", d)
	}
	// The stall window is one-shot: with the deadline cleared, the next
	// write proceeds.
	if err := wc.SetDeadline(time.Time{}); err != nil {
		t.Fatal(err)
	}
	if _, err := wc.Write([]byte("y")); err != nil {
		t.Fatalf("stall not one-shot: %v", err)
	}
}

func TestCloseInterruptsEmulatedDelay(t *testing.T) {
	c, _ := pipeConns(t)
	// 10 KB at 1 KB/s: a 10-second write delay unless Close interrupts.
	wc := Wrap(c, Config{BandwidthBps: 1024})
	errc := make(chan error, 1)
	go func() {
		_, err := wc.Write(make([]byte, 10*1024))
		errc <- err
	}()
	time.Sleep(50 * time.Millisecond)
	start := time.Now()
	wc.Close()
	select {
	case err := <-errc:
		if !errors.Is(err, net.ErrClosed) {
			t.Fatalf("want ErrClosed from interrupted delay, got %v", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Close did not interrupt the emulated delay")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("interrupt was slow: %v", d)
	}
}

func TestResetPerAddrSparesRedialedConns(t *testing.T) {
	faults := NewFaults(FaultConfig{Seed: 3, ConnResets: 2, ResetAfterBytes: 8, ResetPerAddr: true})
	c1, _ := pipeConns(t)
	wc1 := Wrap(c1, Config{Faults: faults})
	if _, err := wc1.Write(make([]byte, 16)); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("first conn should reset: %v", err)
	}
	// A redial to the same address draws no second reset: its key is spent.
	if faults.takeReset(c1.RemoteAddr().String()) {
		t.Fatal("second reset for the same address should be refused")
	}
	// A different address still gets the remaining token, and then the
	// budget is gone.
	if !faults.takeReset("other-worker:1") {
		t.Fatal("fresh address should take the remaining reset token")
	}
	if faults.takeReset("third-worker:1") {
		t.Fatal("budget of 2 is spent; no token for a new address")
	}
	if s := faults.Stats(); s.Resets != 2 {
		t.Fatalf("stats = %+v, want 2 resets", s)
	}
}

func TestInjectedTruncationMidStream(t *testing.T) {
	c, s := pipeConns(t)
	faults := NewFaults(FaultConfig{Truncations: 1, TruncateAfterBytes: 6})
	wc := Wrap(c, Config{Faults: faults})
	if _, err := wc.Write([]byte("head")); err != nil {
		t.Fatalf("below threshold: %v", err)
	}
	// This write crosses the offset: 2 of its 8 bytes are delivered, then
	// the conn dies.
	n, err := wc.Write([]byte("slabslab"))
	if !errors.Is(err, ErrInjectedTruncation) {
		t.Fatalf("want injected truncation, got %v", err)
	}
	if n != 2 {
		t.Fatalf("delivered %d bytes past the threshold, want 2", n)
	}
	// The truncation is sticky and counted.
	if _, err := wc.Write([]byte("x")); !errors.Is(err, ErrInjectedTruncation) {
		t.Fatalf("truncation not sticky: %v", err)
	}
	if st := faults.Stats(); st.Truncations != 1 {
		t.Fatalf("stats = %+v, want 1 truncation", st)
	}
	// The peer sees exactly the 6-byte prefix and then EOF.
	got := make([]byte, 16)
	total := 0
	for {
		n, err := s.Read(got[total:])
		total += n
		if err != nil {
			break
		}
	}
	if total != 6 || string(got[:6]) != "headsl" {
		t.Fatalf("peer saw %q (%d bytes), want 6-byte prefix \"headsl\"", got[:total], total)
	}
	// The budget is one-shot: a second connection is untouched.
	c2, _ := pipeConns(t)
	wc2 := Wrap(c2, Config{Faults: faults})
	if _, err := wc2.Write(make([]byte, 64)); err != nil {
		t.Fatalf("truncation fired beyond its budget: %v", err)
	}
}

func TestInjectedSingleByteCorruption(t *testing.T) {
	c, s := pipeConns(t)
	faults := NewFaults(FaultConfig{Seed: 9, CorruptBytes: 1, CorruptAfterBytes: 3})
	wc := Wrap(c, Config{Faults: faults})
	payload := []byte("01234567")
	orig := append([]byte(nil), payload...)
	if _, err := wc.Write(payload); err != nil {
		t.Fatalf("corrupting write must succeed: %v", err)
	}
	if string(payload) != string(orig) {
		t.Fatal("caller's buffer was mutated; corruption must act on a copy")
	}
	got := make([]byte, len(payload))
	total := 0
	for total < len(payload) {
		n, err := s.Read(got[total:])
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	diff := 0
	for i := range got {
		if got[i] != orig[i] {
			diff++
			if i != 3 {
				t.Fatalf("corrupted byte at offset %d, want 3", i)
			}
		}
	}
	if diff != 1 {
		t.Fatalf("%d bytes differ, want exactly 1", diff)
	}
	if st := faults.Stats(); st.Corruptions != 1 {
		t.Fatalf("stats = %+v, want 1 corruption", st)
	}
	// One-shot: the next write passes through clean.
	if _, err := wc.Write([]byte("abcd")); err != nil {
		t.Fatal(err)
	}
	clean := make([]byte, 4)
	total = 0
	for total < 4 {
		n, err := s.Read(clean[total:])
		if err != nil {
			t.Fatal(err)
		}
		total += n
	}
	if string(clean) != "abcd" {
		t.Fatalf("second write corrupted too: %q", clean)
	}
}

func TestStallAfterBytesDefersWindow(t *testing.T) {
	c, _ := pipeConns(t)
	faults := NewFaults(FaultConfig{Stalls: 1, StallFor: 5 * time.Second, StallAfterBytes: 8})
	wc := Wrap(c, Config{Faults: faults})
	if err := wc.SetDeadline(time.Now().Add(100 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	// Below the arming threshold: the "handshake" writes sail through.
	start := time.Now()
	if _, err := wc.Write([]byte("prelude!")); err != nil {
		t.Fatalf("pre-threshold write stalled: %v", err)
	}
	if d := time.Since(start); d > 50*time.Millisecond {
		t.Fatalf("stall fired before StallAfterBytes: %v", d)
	}
	// The next write is past the threshold: the stall fires and the
	// deadline trips it.
	if _, err := wc.Write([]byte("batch")); !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("want deadline error from deferred stall, got %v", err)
	}
}

func TestStallThenResetTearsDownAfterWindow(t *testing.T) {
	c, _ := pipeConns(t)
	faults := NewFaults(FaultConfig{Stalls: 1, StallFor: 20 * time.Millisecond, StallThenReset: true})
	wc := Wrap(c, Config{Faults: faults})
	// No deadline: the stall window elapses, then the reset lands.
	if _, err := wc.Write([]byte("x")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("want injected reset after stall window, got %v", err)
	}
	if _, err := wc.Write([]byte("y")); !errors.Is(err, ErrInjectedReset) {
		t.Fatalf("stall-reset not sticky: %v", err)
	}
	st := faults.Stats()
	if st.StallResets != 1 || st.Stalls != 1 {
		t.Fatalf("stats = %+v, want 1 stall and 1 stall-reset", st)
	}
}

func TestResetJitterIsDeterministic(t *testing.T) {
	thresholds := func(seed int64) []int64 {
		f := NewFaults(FaultConfig{Seed: seed, ConnResets: 3, ResetAfterBytes: 1000, ResetJitter: 0.5})
		var out []int64
		for i := 0; i < 3; i++ {
			out = append(out, f.planConn().resetAt)
		}
		return out
	}
	a, b := thresholds(42), thresholds(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed, different schedule: %v vs %v", a, b)
		}
		if a[i] < 500 || a[i] > 1500 {
			t.Fatalf("jittered threshold %d outside [500,1500]", a[i])
		}
	}
}
