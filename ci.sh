#!/bin/sh
# ci.sh — the repository's full verification gate.
#
# Stages:
#   0. gofmt         — every tracked Go file is gofmt-clean; the stage
#                      prints the offending files and fails otherwise.
#   1. go vet        — stdlib vet checks.
#   2. go build      — every package compiles.
#   3. go test        — the full suite at full budget (matches the tier-1
#                      gate in ROADMAP.md).
#   3b. go test -race -cpu 1,4 -short
#                    — the race detector over the whole module at one and
#                      four procs, so the internal/par fan-out (FFT plan
#                      sharing, STFT frames, mat row blocks, PSO particle
#                      evaluation) is exercised both serially and with
#                      real parallelism; the determinism tests assert
#                      bit-identical results either way. -short trims only
#                      the full-budget experiment sweeps (they rerun what
#                      stage 3 already covered, and under the race
#                      detector's 10-20x slowdown times two CPU counts
#                      they take the better part of an hour on a small
#                      host); every concurrency-bearing test runs.
#   3c. go test -tags faultinject -race -cpu 1,4 -short
#                    — the deterministic fault-injection and chaos-soak
#                      suites. internal/qos/fault_test.go injects
#                      NaN-poisoned objectives, eval starvation, and
#                      cancellation at iteration k from a master seed into
#                      every qos solve path; internal/prob/chaos_test.go
#                      injects seeded solver-internal corruption (bit-flips,
#                      relative perturbations, forged convergence) into
#                      every backend through the Tamper seam and asserts
#                      100% certificate detection, with the next clean solve
#                      through the same cache bit-identical to an uncached
#                      one; internal/prob/persist_chaos_test.go corrupts
#                      cache snapshots on disk and asserts every corruption
#                      is counted and no solve through the damaged cache
#                      differs from an uncached solve.
#                      Both pin "typed status, no silently-wrong answer, no
#                      panic" and bit-identical outcomes at RCR_WORKERS=1
#                      vs 8, under the race detector at one and four procs.
#   3d. qosd chaos soak + service smoke
#                    — internal/serve/chaos_test.go drives the allocation
#                      service through overload bursts, corrupted and
#                      NaN-poisoned results, slow solvers against tight
#                      deadlines, dead clients, and panicking backends,
#                      asserting zero panics, zero uncertified responses,
#                      typed outcomes everywhere, and bit-identical
#                      allocations at 1 vs 8 workers; then the qosd binary
#                      itself runs a healthy workload and a forced-overload
#                      workload, both of which must exit 0 (the exit code is
#                      the service-health contract: no panics, no
#                      uncertified answers, no internal errors).
#   3d2. dist chaos soak + rcrworker smoke
#                    — internal/dist/chaos_test.go points every transport
#                      fault family (drops, delays, duplication, truncation,
#                      bit flips) plus Byzantine workers and scripted deaths
#                      at a live coordinator and asserts the survival
#                      contract: zero panics, 100% tamper quarantine, and a
#                      merged allocation bit-identical to the single-process
#                      solve; then the rcrworker binary re-executes itself as
#                      four pipe-mode child workers and must reproduce the
#                      local bits end to end across real process boundaries
#                      (exit 0 is the contract).
#   3e. wire fuzz smoke
#                    — short -fuzztime runs of the internal/wire frame fuzzer
#                      and the internal/prob codec fuzzers. The targets assert
#                      the decode trust boundary (every rejection is a typed
#                      sentinel, never a panic) and canonical encoding (any
#                      accepted frame re-encodes to the identical bytes), so
#                      even a brief run guards the properties on the corpus
#                      plus whatever the engine mutates in the window. Crash
#                      repros land in testdata/fuzz/ and fail the stage.
#   3f. qosd warm-restart smoke
#                    — runs the qosd workload twice against one -cache-dir;
#                      the second run must report cacheLoaded > 0, proving
#                      the compiled-forms snapshot written on the first run's
#                      drain survives a real process restart and passes the
#                      load trust boundary (checksum, decode, fingerprint).
#   4. rcrlint       — the numerics static analyzers (internal/lint). Exits
#                      non-zero on any finding not suppressed by a reasoned
#                      //lint:ignore directive. This duplicates the
#                      internal/lint selfcheck test on purpose: the test
#                      enforces cleanliness under plain `go test ./...`,
#                      while this stage gives scripts and pre-push hooks a
#                      direct, greppable report.
#   4b. rcrlint -json — the same findings as a machine-readable artifact
#                      (rcrlint.json, overwritten each run; includes
#                      suppressed findings with their reasons so the
#                      suppression debt is reviewable). The artifact is also
#                      what `rcrlint -baseline` consumes when a branch wants
#                      to fail only on NEW findings relative to a committed
#                      snapshot.
#   4c. rcrlint -escapes
#                    — compiler cross-check of the allochot rule: parses
#                      `go build -gcflags=-m` and fails if the compiler's
#                      escape analysis reports a heap allocation inside any
#                      //rcr:hot function or rcrlint.hotroots entry. The AST
#                      rule over-approximates reachability; this audit
#                      catches what it cannot see (escaping locals, boxing
#                      the compiler introduces).
set -eu
cd "$(dirname "$0")"

echo "ci: gofmt"
unformatted="$(gofmt -l $(git ls-files '*.go'))"
if [ -n "$unformatted" ]; then
	echo "ci: gofmt -l lists files that need formatting:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "ci: go vet"
go vet ./...

echo "ci: go build"
go build ./...

echo "ci: go test"
go test ./...

echo "ci: go test -race -cpu 1,4 -short"
go test -race -cpu 1,4 -short ./...

echo "ci: go test -tags faultinject -race -cpu 1,4 -short"
go test -tags faultinject -race -cpu 1,4 -short ./...

echo "ci: qosd chaos soak (-tags faultinject -race -cpu 1,4)"
go test -tags faultinject -race -cpu 1,4 -run TestChaosSoak -count=1 ./internal/serve

echo "ci: qosd service smoke"
go run ./cmd/qosd -requests 24 -seed 1 > /dev/null
go run ./cmd/qosd -requests 60 -seed 1 -rate 0.25 -burst 2 -workers 2 > /dev/null

echo "ci: dist chaos soak (-tags faultinject -race -cpu 1,4)"
go test -tags faultinject -race -cpu 1,4 -run TestDistChaosSoak -count=1 ./internal/dist

echo "ci: rcrworker distributed smoke"
go run ./cmd/rcrworker -smoke 4 > /dev/null

echo "ci: wire fuzz smoke"
go test -run '^$' -fuzz '^FuzzOpenFrame$' -fuzztime 5s ./internal/wire
go test -run '^$' -fuzz '^FuzzDecodeProblem$' -fuzztime 5s ./internal/prob
go test -run '^$' -fuzz '^FuzzDecodeResult$' -fuzztime 5s ./internal/prob
go test -run '^$' -fuzz '^FuzzDecodeSubproblem$' -fuzztime 5s ./internal/dist
go test -run '^$' -fuzz '^FuzzDecodeSubResult$' -fuzztime 5s ./internal/dist
go test -run '^$' -fuzz '^FuzzDecodeControl$' -fuzztime 5s ./internal/dist

echo "ci: qosd warm-restart smoke"
cache_dir="$(mktemp -d)"
go run ./cmd/qosd -requests 24 -seed 1 -cache-dir "$cache_dir" > /dev/null
go run ./cmd/qosd -requests 24 -seed 1 -cache-dir "$cache_dir" |
	grep -q '"cacheLoaded": [1-9]' || {
	echo "ci: warm restart loaded no cache entries" >&2
	rm -rf "$cache_dir"
	exit 1
}
rm -rf "$cache_dir"

echo "ci: rcrlint"
go run ./cmd/rcrlint ./...

echo "ci: rcrlint -json artifact"
go run ./cmd/rcrlint -json ./... > rcrlint.json || {
	status=$?
	# exit 1 means live findings (stage 4 would have caught them); only a
	# usage/load error (2) is fatal here since stage 4 just passed.
	[ "$status" -ge 2 ] && exit "$status"
}
echo "ci: wrote rcrlint.json"

echo "ci: rcrlint -escapes audit"
go run ./cmd/rcrlint -escapes ./...

#   5. rcrbench -check — perf regression gate: re-times the probe
#                      registry's gated families (mat/qp/sdp kernels, qosd
#                      service, wire codec, dist + fan-out pair) against the
#                      committed BENCH_post.json and fails if any probe is
#                      slower than the 2.5x noise allowance, the fan-out
#                      pair's self-gate trips, or any hot plan method
#                      allocates. Giving back a plan-kernel speedup therefore
#                      needs an explicit baseline recapture in the diff.
echo "ci: rcrbench -check BENCH_post.json"
go run ./cmd/rcrbench -check BENCH_post.json

#   5b. rcrbench -baseline — the real timed capture into a scratch
#                      directory: every registry probe (captured-only
#                      families included), every self-gate, the hot-root
#                      alloc probes and every quick-mode experiment must run
#                      cleanly. The unit test of the capture plumbing runs
#                      on a stub registry, so this stage is where the timed
#                      capture itself is exercised.
echo "ci: rcrbench -baseline (scratch capture)"
bench_dir="$(mktemp -d)"
go run ./cmd/rcrbench -baseline ci -benchdir "$bench_dir" || {
	rm -rf "$bench_dir"
	exit 1
}
rm -rf "$bench_dir"

echo "ci: OK"
