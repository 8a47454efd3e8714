// Command spviz works with the structured event traces switchbench
// writes under -trace (TRACE_<experiment>.jsonl, see internal/obs):
//
//	spviz -check trace.jsonl [more.jsonl ...]  # validate traces
//	spviz -o out.trace.json trace.jsonl        # convert to Chrome JSON
//	spviz trace.jsonl > out.trace.json         # same, to stdout
//	spviz < trace.jsonl > out.trace.json       # reads stdin with no args
//
// The converted file loads in Perfetto (https://ui.perfetto.dev) or
// chrome://tracing: one process per sweep run, one thread per member,
// switch rounds and epoch drains as spans, recovery and fault events as
// instants.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/obs"
)

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "spviz:", err)
		os.Exit(1)
	}
}

func run(args []string, stdin io.Reader, stdout io.Writer) error {
	fs := flag.NewFlagSet("spviz", flag.ContinueOnError)
	var (
		check = fs.Bool("check", false, "validate the traces instead of converting")
		out   = fs.String("o", "", "output file for the Chrome trace (default: stdout)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *check {
		if fs.NArg() == 0 {
			return fmt.Errorf("-check needs at least one trace file")
		}
		for _, path := range fs.Args() {
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			n, err := obs.ValidateJSONL(f)
			f.Close()
			if err != nil {
				return fmt.Errorf("%s: %w", path, err)
			}
			fmt.Fprintf(stdout, "%s: %d events ok\n", path, n)
		}
		return nil
	}

	var events []obs.Event
	switch fs.NArg() {
	case 0:
		var err error
		events, err = obs.ReadJSONL(stdin)
		if err != nil {
			return err
		}
	case 1:
		f, err := os.Open(fs.Arg(0))
		if err != nil {
			return err
		}
		events, err = obs.ReadJSONL(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", fs.Arg(0), err)
		}
	default:
		return fmt.Errorf("convert one trace at a time (got %d files)", fs.NArg())
	}

	b, err := obs.ChromeTrace(events)
	if err != nil {
		return err
	}
	if *out != "" {
		return os.WriteFile(*out, b, 0o644)
	}
	_, err = stdout.Write(b)
	return err
}
