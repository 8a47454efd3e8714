package metaprop

import (
	"fmt"
	"strings"

	"repro/internal/property"
)

// Cell is one entry of Table 2.
type Cell struct {
	Property string
	Meta     string
	// Preserved is the cell's value: true = ✓ (no counterexample
	// within the cell's bound), false = ✗.
	Preserved bool
	// Counterexample is non-nil exactly when Preserved is false.
	Counterexample *Counterexample
}

// Matrix is the computed Table 2.
type Matrix struct {
	// Metas is the column order.
	Metas []string
	// Rows is one slice of cells per property, in Metas order.
	Rows map[string][]Cell
	// Order is the row order (property names).
	Order []string
}

// MetaNames is the Table 2 column order: the four layering
// meta-properties of §5, then the two switching meta-properties of §6.
func MetaNames(n int) []string {
	names := make([]string, 0, 6)
	for _, r := range Relations(n) {
		names = append(names, r.Name())
	}
	return append(names, "Composable")
}

// cellEnumConfig returns the enumeration bound for one cell: the bound
// a '+' in that cell is a proof up to. ✗ cells whose shortest
// counterexamples need several messages from one sender (Amoeba, Every
// Second Delivered) or the exclude/re-admit view pair (Virtual
// Synchrony × Memoryless) get larger universes; everything else uses a
// compact default. Composable cells bound each side of the pair at 3
// events: pairs grow quadratically, and every composability violation
// needs at most a send and a delivery per side.
func cellEnumConfig(prop, meta string) EnumConfig {
	c := EnumConfig{Procs: 2, Messages: 2, MaxLen: 5}
	switch {
	case prop == "Amoeba":
		c.Messages, c.MaxLen = 5, 4
	case prop == "Every Second Delivered" && meta == "Memoryless":
		c.Messages = 5
	case prop == "Every Second Delivered":
		c.Messages, c.MaxLen = 5, 4
	case prop == "Virtual Synchrony" && meta == "Memoryless":
		c.Messages, c.MaxLen = 4, 6
	case prop == "Virtual Synchrony" && meta == "Composable":
		// The violation needs the excluding view (message 3) on one
		// side and the excluded sender's data on the other.
		c.Messages = 3
	}
	if meta == "Composable" {
		c.MaxLen = 3
	}
	return c
}

// Compute regenerates Table 2 by bounded exhaustive enumeration: every
// cell's verdict is either a shortest counterexample or a proof of
// preservation up to the per-cell bound (see cellEnumConfig). With
// extensions=true the extension rows are included.
func Compute(extensions bool) (*Matrix, error) {
	const procs = 2 // cellEnumConfig universes are 2-process
	props := property.Table1(procs)
	if extensions {
		props = append(props, property.Extensions(procs)...)
	}
	m := &Matrix{
		Metas: MetaNames(procs),
		Rows:  make(map[string][]Cell),
	}
	for _, p := range props {
		m.Order = append(m.Order, p.Name())
		var row []Cell
		add := func(meta string, cex *Counterexample, err error) error {
			if err != nil {
				return fmt.Errorf("metaprop: %s × %s: %w", p.Name(), meta, err)
			}
			row = append(row, Cell{
				Property:       p.Name(),
				Meta:           meta,
				Preserved:      cex == nil,
				Counterexample: cex,
			})
			return nil
		}
		for _, r := range Relations(procs) {
			cex, err := EnumCheck(p, r, cellEnumConfig(p.Name(), r.Name()))
			if err := add(r.Name(), cex, err); err != nil {
				return nil, err
			}
		}
		cex, err := EnumCheckComposable(p, cellEnumConfig(p.Name(), "Composable"))
		if err := add("Composable", cex, err); err != nil {
			return nil, err
		}
		m.Rows[p.Name()] = row
	}
	return m, nil
}

// Preserved reports one cell's value; it returns an error for unknown
// names.
func (m *Matrix) Preserved(prop, meta string) (bool, error) {
	row, ok := m.Rows[prop]
	if !ok {
		return false, fmt.Errorf("metaprop: unknown property %q", prop)
	}
	for _, c := range row {
		if c.Meta == meta {
			return c.Preserved, nil
		}
	}
	return false, fmt.Errorf("metaprop: unknown meta-property %q", meta)
}

// AllPreserved reports whether every cell in a property's row is ✓ —
// §6.3's sufficient condition for the property to be preserved by the
// switching protocol.
func (m *Matrix) AllPreserved(prop string) (bool, error) {
	row, ok := m.Rows[prop]
	if !ok {
		return false, fmt.Errorf("metaprop: unknown property %q", prop)
	}
	for _, c := range row {
		if !c.Preserved {
			return false, nil
		}
	}
	return true, nil
}

// Render prints the matrix in the layout of the paper's Table 2.
func (m *Matrix) Render() string {
	short := map[string]string{
		"Safety":       "Safe",
		"Asynchronous": "Async",
		"Send Enabled": "SendEn",
		"Delayable":    "Delay",
		"Memoryless":   "MemLess",
		"Composable":   "Comp",
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-22s", "")
	for _, meta := range m.Metas {
		name := short[meta]
		if name == "" {
			name = meta
		}
		fmt.Fprintf(&b, "%9s", name)
	}
	fmt.Fprintf(&b, "%12s\n", "SP-safe")
	for _, prop := range m.Order {
		fmt.Fprintf(&b, "%-22s", prop)
		all := true
		for _, c := range m.Rows[prop] {
			mark := "+"
			if !c.Preserved {
				mark = "-"
				all = false
			}
			fmt.Fprintf(&b, "%9s", mark)
		}
		mark := "yes"
		if !all {
			mark = "no"
		}
		fmt.Fprintf(&b, "%12s\n", mark)
	}
	return b.String()
}
