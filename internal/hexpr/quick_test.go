package hexpr

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// genFromSeed builds a random well-formed expression from a seed, for
// testing/quick properties.
func genFromSeed(seed int64) Expr {
	return Generate(rand.New(rand.NewSource(seed)), DefaultGenConfig())
}

// TestQuickCatMonoid: Cat is a monoid with ε as unit, under canonical
// keys.
func TestQuickCatMonoid(t *testing.T) {
	f := func(s1, s2, s3 int64) bool {
		a, b, c := genFromSeed(s1), genFromSeed(s2), genFromSeed(s3)
		// associativity
		if !Equal(Cat(Cat(a, b), c), Cat(a, Cat(b, c))) {
			return false
		}
		// unit laws
		return Equal(Cat(Eps(), a), a) && Equal(Cat(a, Eps()), a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickKeyDeterminism: Key is a function of the term (building the
// same term twice gives identical keys).
func TestQuickKeyDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		a := genFromSeed(seed)
		b := genFromSeed(seed)
		return a.Key() == b.Key() && Pretty(a) == Pretty(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickIdenticalMatchesKeys: a term built twice is Identical to
// itself, and two generated terms are Identical exactly when their keys
// are equal, also for a pair differing in one branch continuation.
func TestQuickIdenticalMatchesKeys(t *testing.T) {
	f := func(s1, s2 int64) bool {
		a, a2, b := genFromSeed(s1), genFromSeed(s1), genFromSeed(s2)
		x := Ext(B(In("k"), a), B(In("m"), Eps()))
		y := Ext(B(In("k"), b), B(In("m"), Eps()))
		return Identical(a, a2) &&
			Identical(a, b) == (a.Key() == b.Key()) &&
			Identical(x, y) == (x.Key() == y.Key())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickSubstIdempotentOnClosed: substitution is the identity on closed
// terms, for any variable and replacement.
func TestQuickSubstIdempotentOnClosed(t *testing.T) {
	f := func(s1, s2 int64, name string) bool {
		e := genFromSeed(s1)
		repl := genFromSeed(s2)
		if name == "" {
			name = "h"
		}
		return Equal(Subst(e, name, repl), e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickUnfoldPreservesClosedness: unfolding a closed recursion keeps
// the term closed and well-formed.
func TestQuickUnfoldPreservesClosedness(t *testing.T) {
	f := func(seed int64) bool {
		e := genFromSeed(seed)
		ok := true
		Walk(e, func(x Expr) {
			if r, isRec := x.(Rec); isRec {
				// close the subterm first: bind any outer variables
				sub := Expr(r)
				for v := range FreeVars(sub) {
					sub = Mu(v, sub)
				}
				if r2, isRec2 := sub.(Rec); isRec2 {
					u := Unfold(r2)
					if !Closed(u) {
						ok = false
					}
				}
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickSizePositive: every generated term has positive size and Walk
// visits exactly Size nodes.
func TestQuickSizeWalkAgree(t *testing.T) {
	f := func(seed int64) bool {
		e := genFromSeed(seed)
		n := 0
		Walk(e, func(Expr) { n++ })
		return n == Size(e) && n > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestQuickEventStringParse: event symbols round-trip through ParseValue.
func TestQuickEventValueRoundTrip(t *testing.T) {
	f := func(n int) bool {
		v := Int(n)
		parsed, err := ParseValue(v.String())
		return err == nil && parsed.Equal(v)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
