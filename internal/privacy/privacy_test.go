package privacy

import "testing"

func TestLevelOrderingAndMax(t *testing.T) {
	if Max(Public, Private) != Private || Max(PrivateAggregation, Public) != PrivateAggregation {
		t.Fatal("Max")
	}
	if Public.String() != "Public" || Private.String() != "Private" {
		t.Fatal("String")
	}
}

func TestPropagation(t *testing.T) {
	cases := []struct {
		kind OpKind
		in   Level
		want Level
	}{
		{Transparent, Public, Public},
		{Transparent, PrivateAggregation, PrivateAggregation},
		{Transparent, Private, Private},
		{Aggregating, Public, Public},
		{Aggregating, PrivateAggregation, Public}, // declassified
		{Aggregating, Private, Private},           // never declassified
	}
	for _, c := range cases {
		if got := Propagate(c.kind, c.in); got != c.want {
			t.Errorf("Propagate(%v, %v) = %v want %v", c.kind, c.in, got, c.want)
		}
	}
}

func TestCheckTransfer(t *testing.T) {
	if err := CheckTransfer(Public, "x"); err != nil {
		t.Fatal("public blocked")
	}
	err := CheckTransfer(Private, "matrix 3x3")
	if err == nil {
		t.Fatal("private allowed")
	}
	var v *ErrViolation
	if !asViolation(err, &v) || v.Level != Private {
		t.Fatalf("error type: %v", err)
	}
}

func asViolation(err error, out **ErrViolation) bool {
	v, ok := err.(*ErrViolation)
	if ok {
		*out = v
	}
	return ok
}
