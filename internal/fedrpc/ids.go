package fedrpc

// Namespace-qualified object IDs.
//
// The paper's prototype assumes one interactive control program per worker
// fleet, so a plain per-coordinator counter ("Coordinator.NewID") is enough
// to keep symbol-table IDs unique. A standing multi-session service breaks
// that assumption: many sessions share one fleet, and two sessions whose
// counters both start at 1 would overwrite each other's worker objects.
//
// The fix is a prefix scheme carried inside the existing int64 ID — no wire
// change: the high bits hold a session namespace, the low NamespaceShift
// bits the session-local sequence number. Every coordinator is a session with
// a namespace of 1 or more (federated.Fleet.NewSession); namespace 0 holds
// only the IDs a raw client picks itself.
//
// CLEAR is namespace-aware through its otherwise-unused ID field: a CLEAR
// with ID == ns removes exactly that namespace's bindings at the worker, so
// one session's teardown can never destroy another session's state.

const (
	// NamespaceShift is the bit position splitting an object ID into
	// (namespace, sequence). 40 sequence bits allow ~10^12 objects per
	// session; 23 namespace bits (the int64 sign bit stays clear) allow
	// ~8M live session namespaces per fleet.
	NamespaceShift = 40
	// MaxNamespace is the largest valid session namespace.
	MaxNamespace = (1 << 23) - 1
)

// MakeID composes a namespace-qualified object ID. Namespace 0 yields the
// sequence alone.
func MakeID(ns, seq int64) int64 { return ns<<NamespaceShift | seq }

// IDNamespace extracts the session namespace of an object ID (0 for an ID
// below 1<<NamespaceShift).
func IDNamespace(id int64) int64 { return id >> NamespaceShift }
