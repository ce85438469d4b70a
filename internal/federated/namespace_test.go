package federated_test

import (
	"testing"

	"exdra/internal/federated"
	"exdra/internal/fedrpc"
	"exdra/internal/matrix"
)

// TestSessionsIsolatedOnSharedFleet is the regression test for
// session-unsafe ID generation: two sessions of one shared fleet PUT, GET,
// and CLEAR against the same workers without interference. Before the
// namespace scheme, both sessions' NewID counters started at the same
// value, so the second session's PUTs silently overwrote the first's
// worker objects — and either session's CLEAR destroyed both. The
// cluster's Coord is one more session of the same fleet: it shares the
// fleet's one connection per worker and its CLEAR is scoped too.
func TestSessionsIsolatedOnSharedFleet(t *testing.T) {
	cl := startCluster(t, 2)

	s1, err := cl.Fleet.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := cl.Fleet.NewSession()
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s1.Namespace() == s2.Namespace() || s1.Namespace() == 0 || s2.Namespace() == 0 {
		t.Fatalf("sessions must get distinct nonzero namespaces, got %d and %d",
			s1.Namespace(), s2.Namespace())
	}

	// Same sequence position, different sessions: the IDs must differ.
	id1, id2 := s1.NewID(), s2.NewID()
	if id1 == id2 {
		t.Fatalf("colliding IDs across sessions: %d", id1)
	}
	if fedrpc.IDNamespace(id1) != s1.Namespace() || fedrpc.IDNamespace(id2) != s2.Namespace() {
		t.Fatal("NewID must qualify IDs with the session namespace")
	}

	// Both sessions PUT under their own IDs at the same worker.
	m1 := matrix.FromRows([][]float64{{1, 2}, {3, 4}})
	m2 := matrix.FromRows([][]float64{{9, 8}, {7, 6}})
	addr := cl.Addrs[0]
	put := func(c *federated.Coordinator, id int64, m *matrix.Dense) {
		t.Helper()
		resps, err := c.Call(addr, fedrpc.Request{Type: fedrpc.Put, ID: id, Data: fedrpc.MatrixPayload(m)})
		if err != nil {
			t.Fatal(err)
		}
		if !resps[0].OK {
			t.Fatal(resps[0].Err)
		}
	}
	put(s1, id1, m1)
	put(s2, id2, m2)

	// Each session reads back its own bytes, untouched by the other.
	p1, err := s1.Fetch(addr, id1)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := s2.Fetch(addr, id2)
	if err != nil {
		t.Fatal(err)
	}
	if !p1.Matrix().EqualApprox(m1, 0) || !p2.Matrix().EqualApprox(m2, 0) {
		t.Fatal("sessions interfered: PUT/GET round trips differ")
	}

	// Session 1's CLEAR removes only its own binding.
	if err := s1.ClearAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Fetch(addr, id1); err == nil {
		t.Fatal("session 1's object survived its own ClearAll")
	}
	p2, err = s2.Fetch(addr, id2)
	if err != nil {
		t.Fatalf("session 1's ClearAll destroyed session 2's object: %v", err)
	}
	if !p2.Matrix().EqualApprox(m2, 0) {
		t.Fatal("session 2's object corrupted by session 1's ClearAll")
	}

	// Coord is a session of the same fleet: its calls share the one pooled
	// connection, and its ClearAll spares session 2's object.
	if cl.Coord.Fleet() != cl.Fleet {
		t.Fatal("cl.Coord runs on a fleet of its own")
	}
	if cl.Coord.Namespace() == 0 {
		t.Fatal("cl.Coord has namespace 0")
	}
	id0 := cl.Coord.NewID()
	put(cl.Coord, id0, m1)
	if got := cl.Fleet.PoolStats()[addr].Conns; got != 1 {
		t.Fatalf("%d connections to %s from three sessions at PoolSize 1, want 1", got, addr)
	}
	if err := cl.Coord.ClearAll(); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Coord.Fetch(addr, id0); err == nil {
		t.Fatal("Coord's object survived its own ClearAll")
	}
	if _, err := s2.Fetch(addr, id2); err != nil {
		t.Fatalf("Coord's ClearAll destroyed session 2's object: %v", err)
	}

	// Session 2's teardown leaves the worker fully clean.
	if err := s2.ClearAll(); err != nil {
		t.Fatal(err)
	}
	if n := cl.Workers[0].NumObjects(); n != 0 {
		t.Fatalf("%d objects leaked after both sessions cleared", n)
	}
}
