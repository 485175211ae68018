package main

// Perf regression gate: `rcrbench -check BENCH_<label>.json` re-times the
// probe registry's gated families — the mat/qp/sdp plan kernels, the qosd
// service, the wire codec, the distributed solve with its fan-out pair —
// against the kernel timings recorded in a committed baseline, re-runs the
// fan-out pair's self-gate, and re-measures the hot-root alloc probes. It fails when any probe regresses past the noise
// allowance. This is what keeps a later PR from silently giving back the
// plan-kernel speedups: ci.sh runs it against the committed BENCH_post.json,
// so a regression has to either fix itself or recapture the baseline in a
// reviewable diff.

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// checkFactor is the allowed slowdown before -check fails. Shared hosts
// show 30-50% swings under load — a compile sharing the host pushes single
// probes near 2x — so the gate is deliberately loose: it cannot rank
// commits, but losing a plan-kernel win (3x and up) still clears the bar
// by a wide margin.
const checkFactor = 2.5

// checkBaseline re-times every registry probe marked for -check and
// compares each timing to the baseline entry with the same name and size.
// Timings absent from the baseline are reported as new and skipped; a
// failing probe or tripped self-gate is a regression; alloc probes are
// re-measured and must still be zero.
func checkBaseline(path string, seed uint64) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	ref := make(map[string]float64, len(base.Kernels))
	for _, k := range base.Kernels {
		ref[k.key()] = k.NsPerOp
	}

	probes, cleanup, err := probeRegistry(seed)
	defer cleanup()
	if err != nil {
		return err
	}
	var regressions []string
	for _, p := range probes {
		if !p.check {
			continue
		}
		timings, err := measure(p)
		if err != nil {
			regressions = append(regressions, err.Error())
			continue
		}
		for _, t := range timings {
			if r := compareTiming(ref, t); r != "" {
				regressions = append(regressions, r)
			}
		}
	}

	allocs, err := allocProbes(seed)
	if err != nil {
		return err
	}
	for _, a := range allocs {
		if a.AllocsPerOp != 0 {
			regressions = append(regressions, fmt.Sprintf("%s allocates %g/op", a.Name, a.AllocsPerOp))
		}
	}

	if len(regressions) > 0 {
		return fmt.Errorf("perf regression vs %s (allowance %.1fx):\n  %s",
			path, checkFactor, strings.Join(regressions, "\n  "))
	}
	fmt.Printf("check: all probes within %.1fx of %s\n", checkFactor, path)
	return nil
}

// compareTiming prints t's check line against its baseline entry in ref and
// returns a description of the regression when t is slower than
// checkFactor allows, "" otherwise.
func compareTiming(ref map[string]float64, t KernelTiming) string {
	key := t.key()
	want, ok := ref[key]
	if !ok || want <= 0 {
		fmt.Printf("check %-24s not in baseline, skipped\n", key)
		return ""
	}
	ratio := t.NsPerOp / want
	status, regression := "ok", ""
	if ratio > checkFactor {
		status = "REGRESSION"
		regression = fmt.Sprintf("%s %.0fns -> %.0fns (%.2fx)", key, want, t.NsPerOp, ratio)
	}
	fmt.Printf("check %-24s %12.0f ns/op  baseline %12.0f  (%.2fx) %s\n", key, t.NsPerOp, want, ratio, status)
	return regression
}
