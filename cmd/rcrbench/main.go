// Command rcrbench regenerates the paper's figures and quantitative claims
// (see DESIGN.md §4 for the experiment index). Each experiment prints the
// rows/series the paper reports, produced by this repository's own
// implementations.
//
// Usage:
//
//	rcrbench -exp f3            # one experiment
//	rcrbench -exp all           # everything (slow)
//	rcrbench -exp t1 -quick     # reduced budget
//	rcrbench -list
//	rcrbench -baseline pre      # write BENCH_pre.json perf snapshot
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rcrbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rcrbench", flag.ContinueOnError)
	exp := fs.String("exp", "", "experiment id (f1..f3, t1..t8) or 'all'")
	seed := fs.Uint64("seed", 1, "experiment seed")
	quick := fs.Bool("quick", false, "reduced budgets")
	list := fs.Bool("list", false, "list experiments")
	asJSON := fs.Bool("json", false, "emit JSON instead of tables")
	baseline := fs.String("baseline", "", "capture a perf baseline, writing BENCH_<label>.json")
	benchDir := fs.String("benchdir", ".", "directory for -baseline output")
	check := fs.String("check", "", "re-time the gated probe families (mat, serve, wire, dist, allocs) against a BENCH_*.json baseline; fail on regression")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *check != "" {
		return checkBaseline(*check, *seed)
	}
	if *baseline != "" {
		path, err := captureBaseline(*baseline, *benchDir, *seed, probeRegistry, allExperiments())
		if err != nil {
			return fmt.Errorf("baseline %q: %w", *baseline, err)
		}
		fmt.Printf("baseline written to %s\n", path)
		return nil
	}
	reg := experiments.Registry()
	if *list || *exp == "" {
		fmt.Println("available experiments:")
		for _, id := range experiments.Order() {
			fmt.Printf("  %s\n", id)
		}
		if *exp == "" && !*list {
			return fmt.Errorf("missing -exp")
		}
		return nil
	}
	ids := []string{*exp}
	if *exp == "all" {
		ids = experiments.Order()
	}
	for _, id := range ids {
		runner, ok := reg[strings.ToLower(id)]
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", id)
		}
		start := time.Now()
		table, err := runner(*seed, *quick)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", id, err)
		}
		if *asJSON {
			if err := table.WriteJSON(os.Stdout); err != nil {
				return err
			}
		} else {
			table.Fprint(os.Stdout)
			fmt.Printf("(%s in %s)\n", id, time.Since(start).Round(time.Millisecond))
		}
	}
	return nil
}
