package main

// Baseline capture: `rcrbench -baseline <label>` writes BENCH_<label>.json,
// a machine-readable performance snapshot of the numeric kernel's hot paths
// plus quick-mode wall times for every registered experiment. Committing the
// files produced before and after a performance PR records the repository's
// perf trajectory next to the code that produced it (see DESIGN.md §8).
//
// kernelProbes deliberately uses only long-stable API (fft.FFT,
// stft.Transform, Matrix.Mul, pso.Minimize), so those timings are
// comparable across any pair of commits. The matProbes series instead
// tracks the factorization plans (CholPlan, EigPlan, mat.BatchSolve) — the
// interface the solver inner loops hold — timing the same logical
// operations the pre-plan wrappers performed. serveProbeSeries times the
// qosd service request path end to end (see serveprobe.go). probeRegistry
// lists every probe family once; capture and -check both iterate it.

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/experiments"
	"repro/internal/fft"
	"repro/internal/guard"
	"repro/internal/mat"
	"repro/internal/opt"
	"repro/internal/pso"
	"repro/internal/rng"
	"repro/internal/sdp"
	"repro/internal/stft"
)

// Baseline is the schema of a BENCH_<label>.json file.
type Baseline struct {
	Label      string          `json:"label"`
	CapturedAt string          `json:"captured_at"` // RFC 3339, UTC
	GoVersion  string          `json:"go_version"`
	GOOS       string          `json:"goos"`
	GOARCH     string          `json:"goarch"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	RCRWorkers string          `json:"rcr_workers"` // RCR_WORKERS env, "" = unset
	Kernels    []KernelTiming  `json:"kernels"`
	HotAllocs  []AllocProbe    `json:"hot_allocs"` // exported //rcr:hot roots, must all be 0
	Exps       []ExperimentRun `json:"experiments"`
}

// KernelTiming is one micro-benchmark result.
type KernelTiming struct {
	Name    string  `json:"name"`
	Size    int     `json:"size"`
	Iters   int     `json:"iters"`
	NsPerOp float64 `json:"ns_per_op"`
}

// ExperimentRun is one quick-mode experiment wall time.
type ExperimentRun struct {
	ID   string  `json:"id"`
	Ms   float64 `json:"ms"`
	Rows int     `json:"rows"`
}

// experiment is one entry of the experiment list a capture times.
type experiment struct {
	id  string
	run experiments.Runner
}

// allExperiments lists every registered experiment in run order.
func allExperiments() []experiment {
	reg := experiments.Registry()
	var exps []experiment
	for _, id := range experiments.Order() {
		exps = append(exps, experiment{id: id, run: reg[id]})
	}
	return exps
}

// captureBaseline measures every probe the registry builds and times every
// experiment of exps in quick mode, and writes the baseline file into dir.
// The command passes probeRegistry and allExperiments(); tests pass a stub
// registry of instant probes and a stub experiment list.
func captureBaseline(label, dir string, seed uint64, registry func(seed uint64) ([]probe, func(), error), exps []experiment) (string, error) {
	if label == "" {
		return "", fmt.Errorf("baseline label must be non-empty")
	}
	b := &Baseline{
		Label:      label,
		CapturedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		RCRWorkers: os.Getenv("RCR_WORKERS"),
	}
	probes, cleanup, err := registry(seed)
	defer cleanup()
	if err != nil {
		return "", err
	}
	if b.Kernels, err = captureProbes(probes); err != nil {
		return "", err
	}
	if b.HotAllocs, err = allocProbes(seed); err != nil {
		return "", err
	}
	for _, e := range exps {
		start := time.Now()
		table, err := e.run(seed, true)
		if err != nil {
			return "", fmt.Errorf("experiment %s: %w", e.id, err)
		}
		b.Exps = append(b.Exps, ExperimentRun{
			ID:   e.id,
			Ms:   float64(time.Since(start).Microseconds()) / 1e3,
			Rows: len(table.Rows),
		})
	}
	path := filepath.Join(dir, "BENCH_"+label+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	if err := enc.Encode(b); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// captureProbes times every probe in order. Any failure — a probe error or
// a tripped self-gate — fails the capture: a broken probe recorded as a zero
// timing would drop out of -check for good.
func captureProbes(probes []probe) ([]KernelTiming, error) {
	var out []KernelTiming
	for _, p := range probes {
		ts, err := measure(p)
		if err != nil {
			return nil, err
		}
		out = append(out, ts...)
	}
	return out, nil
}

// probe is one row of the probe registry. A single probe sets name and fn.
// An interleaved pair also sets nameB and fnB and is timed by timePair, so
// host-load drift cancels out of the A/B ratio. A self-gating pair adds
// gate, which rejects timings that break the claim the pair exists to
// prove.
type probe struct {
	name, nameB string
	size        int
	fn, fnB     func() error
	gate        func(nsA, nsB float64) error
	check       bool // -check re-times it against the baseline
}

// probeRegistry builds every probe a baseline records, in baseline order,
// and marks the families -check re-times: the plan kernels, the qosd
// service, the wire codec, and the distributed solve with its fan-out
// pair. The long-stable kernel probes and the guard and
// prob pairs are captured only. Each family constructor returns a cleanup for
// what its probes hold (servers, pools, temp dirs), nil when they hold
// nothing; the returned cleanup runs them all and is always safe to call.
func probeRegistry(seed uint64) (probes []probe, cleanup func(), err error) {
	var cleanups []func()
	cleanup = func() {
		for _, c := range cleanups {
			c()
		}
	}
	for _, fam := range []struct {
		build func(seed uint64) ([]probe, func(), error)
		check bool
	}{
		{kernelProbes, false},
		{matProbes, true},
		{guardPairs, false},
		{probPairs, false},
		{serveProbeSeries, true},
		{wireProbeSeries, true},
		{distProbeSeries, true},
	} {
		ps, c, err := fam.build(seed)
		if c != nil {
			cleanups = append(cleanups, c)
		}
		if err != nil {
			return nil, cleanup, err
		}
		for i := range ps {
			ps[i].check = fam.check
		}
		probes = append(probes, ps...)
	}
	return probes, cleanup, nil
}

// key is the name/size identity a baseline entry is matched by.
func (k KernelTiming) key() string { return fmt.Sprintf("%s/%d", k.Name, k.Size) }

// measure times p and applies its self-gate, returning one timing per
// side.
func measure(p probe) ([]KernelTiming, error) {
	if p.fnB == nil {
		iters, ns, err := timeProbe(p.fn)
		if err != nil {
			return nil, fmt.Errorf("probe %s/%d: %w", p.name, p.size, err)
		}
		return []KernelTiming{{Name: p.name, Size: p.size, Iters: iters, NsPerOp: ns}}, nil
	}
	iters, nsA, nsB, err := timePair(p.fn, p.fnB)
	if err != nil {
		return nil, fmt.Errorf("pair %s/%s/%d: %w", p.name, p.nameB, p.size, err)
	}
	if p.gate != nil {
		if err := p.gate(nsA, nsB); err != nil {
			return nil, fmt.Errorf("%w: %s %.0f ns/op vs %s %.0f ns/op", err, p.nameB, nsB, p.name, nsA)
		}
	}
	return []KernelTiming{
		{Name: p.name, Size: p.size, Iters: iters, NsPerOp: nsA},
		{Name: p.nameB, Size: p.size, Iters: iters, NsPerOp: nsB},
	}, nil
}

// kernelProbes builds the closed set of hot-path micro-benchmarks. Inputs
// are deterministic (seeded); only the timing varies between runs.
func kernelProbes(seed uint64) ([]probe, func(), error) {
	r := rng.New(seed)
	sig4096 := make([]complex128, 4096)
	for i := range sig4096 {
		sig4096[i] = complex(r.Norm(), r.Norm())
	}
	sig4095 := sig4096[:4095]

	audio := make([]float64, 16384)
	for i := range audio {
		audio[i] = r.Norm()
	}
	stftCfg := stft.DefaultConfig()

	const mm = 192
	a, bm := mat.New(mm, mm), mat.New(mm, mm)
	for i := range a.Data {
		a.Data[i] = r.Norm()
		bm.Data[i] = r.Norm()
	}
	const mv = 512
	mvec := mat.New(mv, mv)
	for i := range mvec.Data {
		mvec.Data[i] = r.Norm()
	}
	x := make([]float64, mv)
	for i := range x {
		x[i] = r.Norm()
	}

	sphere := func(v []float64) float64 {
		var s float64
		for _, u := range v {
			s += u * u
		}
		return s
	}
	psoDims := make([]pso.Dim, 6)
	for i := range psoDims {
		psoDims[i] = pso.Dim{Lo: -5, Hi: 5}
	}

	return []probe{
		{name: "fft_pow2_repeated", size: 4096, fn: func() error {
			_ = fft.FFT(sig4096)
			return nil
		}},
		{name: "fft_bluestein_repeated", size: 4095, fn: func() error {
			_ = fft.FFT(sig4095)
			return nil
		}},
		{name: "stft_transform", size: len(audio), fn: func() error {
			_, err := stft.Transform(audio, stftCfg)
			return err
		}},
		{name: "mat_mul", size: mm, fn: func() error {
			_, err := a.Mul(bm)
			return err
		}},
		{name: "mat_mulvec", size: mv, fn: func() error {
			_, err := mvec.MulVec(x)
			return err
		}},
		{name: "pso_sphere", size: 6, fn: func() error {
			//lint:ignore dropstatus timing probe: only wall-clock matters, the iterate is discarded
			_, err := pso.Minimize(&pso.Problem{Dims: psoDims, Eval: sphere},
				pso.Options{Seed: seed, Swarm: 16, MaxIter: 60})
			return err
		}},
	}, nil, nil
}

// guardPairs pairs guarded and unguarded runs of the same solver hot loops
// (SDP ADMM iterations, PSO swarm steps, BFGS line-search descent) so a
// baseline can bound the overhead of an *armed* guard.Monitor — context
// poll, wall-deadline check, and eval accounting at every iteration
// boundary — against the identical zero-budget run. The robustness contract
// is that the guarded column stays within 2% of the unguarded one.
func guardPairs(seed uint64) ([]probe, func(), error) {
	// A fully armed budget that never fires: every check path (cancelable
	// ctx select, deadline clock, eval cap) is exercised. A plain
	// context.Background would skip the select — its done channel is nil.
	armed := func() guard.Budget {
		ctx, cancel := context.WithCancel(context.Background())
		_ = cancel // deliberately never canceled: the monitor stays armed for the probe's lifetime
		return guard.Budget{Ctx: ctx, Deadline: time.Hour, MaxEvals: 1 << 40}
	}

	r := rng.New(seed + 1)
	const n = 12
	c := mat.New(n, n)
	for i := range c.Data {
		c.Data[i] = r.Norm()
	}
	c.Symmetrize()
	sdpProblem := func() *sdp.Problem {
		//lint:ignore rawproblem guard-overhead baseline measures the raw ADMM backend; routing through the prob IR would fold lowering cost into the guarded/unguarded ratio
		return &sdp.Problem{C: c, A: []*mat.Matrix{mat.Identity(n)}, B: []float64{2}}
	}
	sdpOpts := sdp.Options{MaxIter: 400, Tol: 1e-9} // tolerance kept unreachable: fixed 400 iterations

	sphere := func(v []float64) float64 {
		var s float64
		for _, u := range v {
			s += u * u
		}
		return s
	}
	psoDims := make([]pso.Dim, 6)
	for i := range psoDims {
		psoDims[i] = pso.Dim{Lo: -5, Hi: 5}
	}

	// Extended Rosenbrock in 32 dimensions: each BFGS iteration does O(n²)
	// work, so the probe measures the solver's hot loop rather than
	// per-iteration bookkeeping (a 2-D toy would).
	const rn = 32
	rosen := opt.Objective{
		F: func(x []float64) float64 {
			var s float64
			for i := 0; i+1 < len(x); i++ {
				a := 1 - x[i]
				b := x[i+1] - x[i]*x[i]
				s += a*a + 100*b*b
			}
			return s
		},
		Grad: func(x, g []float64) {
			for i := range g {
				g[i] = 0
			}
			for i := 0; i+1 < len(x); i++ {
				a := 1 - x[i]
				b := x[i+1] - x[i]*x[i]
				g[i] += -2*a - 400*x[i]*b
				g[i+1] += 200 * b
			}
		},
	}
	rosenX0 := make([]float64, rn)
	for i := range rosenX0 {
		rosenX0[i] = -1.2
	}

	sdpRun := func(b guard.Budget) func() error {
		return func() error {
			o := sdpOpts
			o.Budget = b
			//lint:ignore dropstatus timing probe: only wall-clock matters, the iterate is discarded
			_, err := sdp.Solve(sdpProblem(), o)
			if err != nil && !errors.Is(err, sdp.ErrNoProgress) {
				return err
			}
			return nil // ErrNoProgress is the point: a fixed 400-iteration loop
		}
	}
	psoRun := func(b guard.Budget) func() error {
		return func() error {
			//lint:ignore dropstatus timing probe: only wall-clock matters, the iterate is discarded
			_, err := pso.Minimize(&pso.Problem{Dims: psoDims, Eval: sphere},
				pso.Options{Seed: seed, Swarm: 16, MaxIter: 60, Budget: b})
			return err
		}
	}
	bfgsRun := func(b guard.Budget) func() error {
		return func() error {
			//lint:ignore dropstatus timing probe: only wall-clock matters, the iterate is discarded
			_, err := opt.BFGS(rosen, rosenX0, opt.Options{MaxIter: 200, Budget: b})
			return err
		}
	}
	return []probe{
		{name: "sdp_admm_unguarded", nameB: "sdp_admm_guarded", size: n, fn: sdpRun(guard.Budget{}), fnB: sdpRun(armed())},
		{name: "pso_sphere_unguarded", nameB: "pso_sphere_guarded", size: 6, fn: psoRun(guard.Budget{}), fnB: psoRun(armed())},
		{name: "bfgs_rosenbrock_unguarded", nameB: "bfgs_rosenbrock_guarded", size: rn, fn: bfgsRun(guard.Budget{}), fnB: bfgsRun(armed())},
	}, nil, nil
}

// timePair measures a pair with interleaved rounds: calibrate an iteration
// count on side a, then alternate a and b rounds ten times and keep each
// side's minimum. Interleaving means both sides sample the same host-load
// conditions, so slow drift cancels out of the b/a ratio — sequential
// 150 ms probes on a busy host show ±5% swings that would swamp the <2%
// guard overhead bound the guard pairs exist to check.
func timePair(a, b func() error) (iters int, nsA, nsB float64, err error) {
	if err := b(); err != nil {
		return 0, 0, 0, err
	}
	if iters, _, err = calibrate(a, 40*time.Millisecond); err != nil {
		return 0, 0, 0, err
	}
	bestA, bestB := time.Duration(0), time.Duration(0)
	for r := 0; r < 10; r++ {
		ea, err := timeRound(a, iters)
		if err != nil {
			return 0, 0, 0, err
		}
		eb, err := timeRound(b, iters)
		if err != nil {
			return 0, 0, 0, err
		}
		if bestA == 0 || ea < bestA {
			bestA = ea
		}
		if bestB == 0 || eb < bestB {
			bestB = eb
		}
	}
	return iters, float64(bestA.Nanoseconds()) / float64(iters), float64(bestB.Nanoseconds()) / float64(iters), nil
}

// timeProbe runs fn enough times to pass a fixed wall-clock target and
// reports the iteration count and ns/op (testing.B-style calibration).
// Once calibrated it takes the best of three measurement rounds (the
// calibrating round counts as the first): on a shared host the minimum is
// the least contaminated estimate of the true cost.
func timeProbe(fn func() error) (iters int, nsPerOp float64, err error) {
	iters, best, err := calibrate(fn, 150*time.Millisecond)
	if err != nil {
		return 0, 0, err
	}
	for r := 0; r < 2; r++ {
		e, err := timeRound(fn, iters)
		if err != nil {
			return 0, 0, err
		}
		if e < best {
			best = e
		}
	}
	return iters, float64(best.Nanoseconds()) / float64(iters), nil
}

// calibrate warms fn up (surfacing configuration errors) and grows the
// iteration count until one round of fn takes at least target, returning
// that count and the round's wall time.
func calibrate(fn func() error, target time.Duration) (iters int, elapsed time.Duration, err error) {
	if err := fn(); err != nil {
		return 0, 0, err
	}
	for iters = 1; ; {
		if elapsed, err = timeRound(fn, iters); err != nil {
			return 0, 0, err
		}
		if elapsed >= target || iters >= 1<<22 {
			return iters, elapsed, nil
		}
		next := iters * 2
		if elapsed > 0 {
			if est := int(float64(iters) * float64(target) / float64(elapsed) * 12 / 10); est > next {
				next = est
			}
		}
		iters = next
	}
}

// timeRound runs fn iters times and returns the wall time.
func timeRound(fn func() error, iters int) (time.Duration, error) {
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := fn(); err != nil {
			return 0, err
		}
	}
	return time.Since(start), nil
}
