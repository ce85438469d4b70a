// Package privacy implements the federated privacy models of ExDRa §2.3 and
// §4.1: coarse- and fine-grained data-exchange constraints attached to
// federated data and constraint propagation through operations.
package privacy

import "fmt"

// Level is a coarse-grained data-exchange constraint.
type Level int

// Constraint levels, ordered from least to most restrictive.
const (
	// Public data may be transferred to the coordinator freely.
	Public Level = iota
	// PrivateAggregation data may only leave a federated site in aggregate
	// form (e.g. gradients, partial sums) that does not reveal raw records.
	PrivateAggregation
	// Private data must never leave the federated site.
	Private
)

// String returns the constraint name.
func (l Level) String() string {
	switch l {
	case Public:
		return "Public"
	case PrivateAggregation:
		return "PrivateAggregation"
	case Private:
		return "Private"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Max returns the more restrictive of two levels (the join of the lattice),
// used when an operation combines inputs with different constraints.
func Max(a, b Level) Level {
	if a > b {
		return a
	}
	return b
}

// OpKind classifies operations for constraint propagation.
type OpKind int

// Operation kinds for constraint propagation.
const (
	// Transparent operations (element-wise, reorg, indexing) preserve the
	// input constraint: the output reveals as much as the input.
	Transparent OpKind = iota
	// Aggregating operations reduce many cells to few; they declassify
	// PrivateAggregation to Public but keep Private private.
	Aggregating
)

// Propagate returns the constraint of an operation's output given the most
// restrictive input constraint and the operation kind.
func Propagate(kind OpKind, in Level) Level {
	if kind == Aggregating && in == PrivateAggregation {
		return Public
	}
	return in
}

// ErrViolation is returned when a transfer would violate a constraint.
type ErrViolation struct {
	Level Level
	What  string
}

func (e *ErrViolation) Error() string {
	return fmt.Sprintf("privacy: transferring %s would violate %s constraint", e.What, e.Level)
}

// CheckTransfer returns an error if data under the given constraint may not
// be transferred off its federated site.
func CheckTransfer(l Level, what string) error {
	if l == Public {
		return nil
	}
	return &ErrViolation{Level: l, What: what}
}
