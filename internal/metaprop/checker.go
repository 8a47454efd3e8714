package metaprop

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/property"
	"repro/internal/trace"
)

// Counterexample witnesses that a relation does not preserve a
// property: Below satisfies it, Above = R(Below) does not. For
// Composable, Below and Extra are the two concatenated traces and Above
// their concatenation.
type Counterexample struct {
	Property string
	Relation string
	Below    trace.Trace
	Extra    trace.Trace // Composable only
	Above    trace.Trace
}

// String renders the counterexample for humans.
func (c Counterexample) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s is not %s:\n-- tr_below --\n%v\n", c.Property, c.Relation, c.Below)
	if c.Extra != nil {
		fmt.Fprintf(&b, "-- tr_2 --\n%v\n", c.Extra)
	}
	fmt.Fprintf(&b, "-- tr_above (violates) --\n%v", c.Above)
	return b.String()
}

// Checker runs the preservation falsifier.
type Checker struct {
	// Trials is the number of random (generate, perturb, check) rounds
	// per cell.
	Trials int
	// Seed makes the search deterministic.
	Seed int64
}

// CheckRelation searches for a counterexample to Equation 1 for one
// (property, relation) cell. It returns nil if none was found after the
// configured trials (the cell is ✓ empirically), or the first
// counterexample found. It returns an error if the generator emits a
// trace that does not satisfy the property (a generator bug).
func (c Checker) CheckRelation(p property.Property, r Relation, gen Generator) (*Counterexample, error) {
	rng := rand.New(rand.NewSource(c.Seed))
	for i := 0; i < c.Trials; i++ {
		below := gen(rng)
		if err := below.Validate(); err != nil {
			return nil, fmt.Errorf("metaprop: generator for %s emitted invalid trace: %w", p.Name(), err)
		}
		if !p.Holds(below) {
			return nil, fmt.Errorf("metaprop: generator for %s emitted violating trace", p.Name())
		}
		above := r.Perturb(rng, below)
		if !p.Holds(above) {
			return &Counterexample{
				Property: p.Name(),
				Relation: r.Name(),
				Below:    below,
				Above:    above,
			}, nil
		}
	}
	return nil, nil
}

// CheckComposable searches for a counterexample to §6.2: two disjoint
// traces satisfying the property whose concatenation violates it.
func (c Checker) CheckComposable(p property.Property, gen Generator) (*Counterexample, error) {
	rng := rand.New(rand.NewSource(c.Seed))
	for i := 0; i < c.Trials; i++ {
		tr1 := gen(rng)
		tr2 := gen(rng).RenumberFrom(uint64(tr1.MaxMsgID()))
		if !p.Holds(tr1) || !p.Holds(tr2) {
			return nil, fmt.Errorf("metaprop: generator for %s emitted violating trace", p.Name())
		}
		combined, err := tr1.Concat(tr2)
		if err != nil {
			return nil, fmt.Errorf("metaprop: disjointness bug: %w", err)
		}
		if !p.Holds(combined) {
			return &Counterexample{
				Property: p.Name(),
				Relation: "Composable",
				Below:    tr1,
				Extra:    tr2,
				Above:    combined,
			}, nil
		}
	}
	return nil, nil
}
