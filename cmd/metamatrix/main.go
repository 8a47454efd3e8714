// Command metamatrix regenerates Table 2 of the paper: which of the
// eight Table 1 communication properties satisfy which of the six
// meta-properties. Every cell is decided by bounded exhaustive
// enumeration: a '+' cell is a proof up to the per-cell bound, and a
// '-' cell comes with a shortest counterexample (printed with
// -verbose). The final column marks the §6.3 class: properties with all
// six meta-properties are provably preserved by the switching protocol.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/metaprop"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "metamatrix:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("metamatrix", flag.ContinueOnError)
	var (
		verbose    = fs.Bool("verbose", false, "print the counterexample behind every '-' cell")
		extensions = fs.Bool("extensions", false, "include the repository's extension rows (Causal Order, Every Second Delivered)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	m, err := metaprop.Compute(*extensions)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "Table 2 — which properties satisfy which meta-properties?")
	fmt.Fprintln(out, "('+' is a proof up to the per-cell bound; '-' comes with a shortest counterexample)")
	fmt.Fprintln(out)
	fmt.Fprintln(out, m.Render())
	if *verbose {
		fmt.Fprintln(out, "Counterexamples:")
		for _, prop := range m.Order {
			for _, cell := range m.Rows[prop] {
				if cell.Counterexample != nil {
					fmt.Fprintf(out, "\n--- %s × %s ---\n%s\n", prop, cell.Meta, cell.Counterexample)
				}
			}
		}
	}
	return nil
}
