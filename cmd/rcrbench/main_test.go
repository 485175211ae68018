package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/experiments"
)

func TestRunList(t *testing.T) {
	if err := run([]string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMissingExp(t *testing.T) {
	err := run(nil)
	if err == nil || !strings.Contains(err.Error(), "missing -exp") {
		t.Fatalf("want missing -exp error, got %v", err)
	}
}

func TestRunUnknownExp(t *testing.T) {
	err := run([]string{"-exp", "zz"})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("want unknown experiment error, got %v", err)
	}
}

// stubRegistry stands in for probeRegistry in the capture-plumbing tests:
// instant probes, one of them a self-gating pair, so the tests exercise
// capture without timing real work (ci.sh runs the real capture).
func stubRegistry(gateRan, cleaned *bool) func(uint64) ([]probe, func(), error) {
	ok := func() error { return nil }
	return func(uint64) ([]probe, func(), error) {
		return []probe{
			{name: "stub_single", size: 1, fn: ok},
			{name: "stub_cold", nameB: "stub_warm", size: 2, fn: ok, fnB: ok,
				gate: func(nsA, nsB float64) error {
					*gateRan = true
					return nil
				}},
		}, func() { *cleaned = true }, nil
	}
}

func TestBaselineRejectsEmptyLabelViaCapture(t *testing.T) {
	var gateRan, cleaned bool
	if _, err := captureBaseline("", t.TempDir(), 1, stubRegistry(&gateRan, &cleaned), nil); err == nil {
		t.Fatal("want error for empty baseline label")
	}
}

// stubExperiments stands in for allExperiments in the capture-plumbing
// tests: two instant experiments with known row counts, which refuse to
// run outside quick mode.
func stubExperiments() []experiment {
	rows := func(n int) experiments.Runner {
		return func(_ uint64, quick bool) (*experiments.Table, error) {
			if !quick {
				return nil, errors.New("baseline capture must run experiments in quick mode")
			}
			return &experiments.Table{Rows: make([][]string, n)}, nil
		}
	}
	return []experiment{{id: "stub_a", run: rows(2)}, {id: "stub_b", run: rows(0)}}
}

// TestBaselineWritesSnapshot pins the capture plumbing — registry and
// experiment list in, self-gates applied, cleanup run, schema out — on a
// stub registry and stub experiments. The timed capture of the real
// registry and every F1–T8 experiment, with every self-gate, is a ci.sh
// stage.
func TestBaselineWritesSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping baseline capture in -short mode")
	}
	dir := t.TempDir()
	var gateRan, cleaned bool
	path, err := captureBaseline("testlbl", dir, 1, stubRegistry(&gateRan, &cleaned), stubExperiments())
	if err != nil {
		t.Fatal(err)
	}
	if path != filepath.Join(dir, "BENCH_testlbl.json") {
		t.Fatalf("baseline written to %s", path)
	}
	if !gateRan || !cleaned {
		t.Fatalf("gate ran %v, cleanup ran %v; want both", gateRan, cleaned)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if b.Label != "testlbl" || b.GOMAXPROCS < 1 {
		t.Fatalf("bad metadata: %+v", b)
	}
	var keys []string
	for _, k := range b.Kernels {
		keys = append(keys, k.key())
	}
	if want := []string{"stub_single/1", "stub_cold/2", "stub_warm/2"}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("kernel keys %v, want %v", keys, want)
	}
	for _, k := range b.Kernels {
		if k.Iters <= 0 || k.NsPerOp <= 0 {
			t.Fatalf("kernel %s has empty timing: %+v", k.Name, k)
		}
	}
	var exps []string
	for _, e := range b.Exps {
		exps = append(exps, fmt.Sprintf("%s/%d", e.ID, e.Rows))
	}
	if want := []string{"stub_a/2", "stub_b/0"}; !reflect.DeepEqual(exps, want) {
		t.Fatalf("captured experiments %v, want %v", exps, want)
	}
}

// TestHotRootsAllocFree pins the allochot contract at runtime: every
// exported //rcr:hot root must do zero allocations per op. This runs even
// in -short mode — the probes are microseconds, and a regression here is
// exactly what the lint rule exists to prevent.
func TestHotRootsAllocFree(t *testing.T) {
	probes, err := allocProbes(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(probes) < 4 {
		t.Fatalf("expected probes for all exported hot roots, got %d", len(probes))
	}
	for _, p := range probes {
		if p.AllocsPerOp != 0 {
			t.Errorf("%s: %g allocs/op, want 0", p.Name, p.AllocsPerOp)
		}
	}
}

func TestRunQuickExperiment(t *testing.T) {
	if testing.Short() {
		t.Skip("skipping experiment execution in -short mode")
	}
	if err := run([]string{"-exp", "t8", "-quick"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-exp", "f3", "-quick", "-json"}); err != nil {
		t.Fatal(err)
	}
}

// TestProbeRegistryKeys pins the registry without timing anything: every
// name/size key is unique, capture records exactly the committed
// BENCH_post.json kernel keys in order, and -check re-times exactly the
// gated families.
func TestProbeRegistryKeys(t *testing.T) {
	probes, cleanup, err := probeRegistry(1)
	defer cleanup()
	if err != nil {
		t.Fatal(err)
	}
	var keys, checked []string
	seen := map[string]bool{}
	for _, p := range probes {
		names := []string{p.name}
		if p.fnB != nil {
			names = append(names, p.nameB)
		}
		for _, n := range names {
			k := KernelTiming{Name: n, Size: p.size}.key()
			if seen[k] {
				t.Errorf("duplicate registry key %s", k)
			}
			seen[k] = true
			keys = append(keys, k)
			if p.check {
				checked = append(checked, k)
			}
		}
	}

	raw, err := os.ReadFile(filepath.Join("..", "..", "BENCH_post.json"))
	if err != nil {
		t.Fatal(err)
	}
	var base Baseline
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}
	var committed []string
	for _, k := range base.Kernels {
		committed = append(committed, k.key())
	}
	if !reflect.DeepEqual(keys, committed) {
		t.Errorf("registry keys differ from BENCH_post.json kernels:\ngot  %v\nwant %v", keys, committed)
	}

	gated := []string{
		"mat_cholesky/64", "mat_cholesky/128", "mat_cholesky/192",
		"mat_symeig/64", "mat_symeig/128",
		"mat_mul/64", "mat_mul/96", "mat_mul/128",
		"mat_batch_solve/16", "mat_batch_solve/32", "mat_batch_solve/64",
		"qp_barrier_iter/40", "sdp_admm_iter/24",
		"qosd_throughput/8", "qosd_urllc_p99/5", "qosd_shed_latency/1",
		"wire_encode/16", "wire_decode/16",
		"dist_dead_worker_recovery/3", "dist_local_solve/3", "dist_fanout_4w/3",
	}
	if !reflect.DeepEqual(checked, gated) {
		t.Errorf("-check subset:\ngot  %v\nwant %v", checked, gated)
	}
}

// TestCaptureFailsOnBrokenProbe: a failing probe of any kind, or a tripped
// self-gate, fails the capture instead of entering the baseline as a zero
// timing that -check would skip.
func TestCaptureFailsOnBrokenProbe(t *testing.T) {
	ok := func() error { return nil }
	broken := func() error { return errors.New("probe broke") }
	tripped := func(nsA, nsB float64) error { return errors.New("broken gate") }
	for name, table := range map[string][]probe{
		"single":      {{name: "fine", size: 1, fn: ok}, {name: "broken", size: 1, fn: broken}},
		"pair side A": {{name: "broken", nameB: "fine", size: 1, fn: broken, fnB: ok}},
		"pair side B": {{name: "fine", nameB: "broken", size: 1, fn: ok, fnB: broken}},
		"pair gate":   {{name: "fine", nameB: "fine_b", size: 1, fn: ok, fnB: ok, gate: tripped}},
	} {
		timings, err := captureProbes(table)
		if err == nil || !strings.Contains(err.Error(), "broken") {
			t.Errorf("%s: capture returned %v, %v; want an error naming the broken probe", name, timings, err)
		}
	}
}
