package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"repro/internal/dist"
	"repro/internal/guard"
	"repro/internal/prob"
	"repro/internal/qos"
	"repro/internal/rng"
	"repro/internal/wire"
)

// The dist-sweep workload: a closed loop of multi-cell solves, one at a
// time, fanned out by a dist.Pool over in-process pipe links to
// dist.ServeWorker loops. The budget is an eval cap only, so the merged
// bits are deterministic and checkable against dist.SolveLocal.
const (
	distCells    = 4
	distRBs      = 4
	distCoupling = 1.0
	distMaxEvals = 50_000
	// distSweeps is dist's default sweep count, which the generated
	// instances use (MultiCell.Sweeps is 0); the traced replay mirrors it.
	distSweeps = 2
	// distOpsPerSecond is how many instances set-up generates per measured
	// second, above the solve rate the loop reaches; a faster loop starts
	// over from the first instance.
	distOpsPerSecond = 40
	// distReplayStride: the traced mode replays every solve through
	// dist.SolveLocal (the bit-identity reference) but only every
	// distReplayStride-th one cell by cell, which keeps a traced 30 s run
	// near 90 s, well inside the three-minute limit on a busy host.
	distReplayStride = 2
)

// distInstance is one generated multi-cell problem and its solve options.
type distInstance struct {
	MC   *dist.MultiCell
	Opts dist.Options
}

// distInputs generates n instances from seed.
func distInputs(seed uint64, n int) ([]distInstance, error) {
	r := rng.New(seed)
	out := make([]distInstance, n)
	for i := range out {
		s := r.Uint64()
		mc, err := dist.GenerateMultiCell(distCells, 1, 1, 1, distRBs, distCoupling, s)
		if err != nil {
			return nil, fmt.Errorf("instance %d: %w", i, err)
		}
		out[i] = distInstance{MC: mc, Opts: dist.Options{Budget: guard.Budget{MaxEvals: distMaxEvals}, Seed: s}}
	}
	return out, nil
}

// helloConn signals once, on the coordinator side of a link, when the
// first bytes from the worker (its hello frame) have been read.
type helloConn struct {
	net.Conn
	once  sync.Once
	hello chan<- struct{}
}

func (c *helloConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if n > 0 {
		c.once.Do(func() { c.hello <- struct{}{} })
	}
	return n, err
}

// workerPool is a dist.Pool over in-process worker links plus the worker
// goroutines serving them.
type workerPool struct {
	pool *dist.Pool
	wg   sync.WaitGroup
	mu   sync.Mutex
	errs []error
}

// startPool starts n pipe workers and returns once each has said hello.
func startPool(n int) (*workerPool, error) {
	wp := &workerPool{}
	hellos := make(chan struct{}, n)
	conns := make([]io.ReadWriteCloser, n)
	for i := 0; i < n; i++ {
		coord, worker := net.Pipe()
		conns[i] = &helloConn{Conn: coord, hello: hellos}
		wp.wg.Add(1)
		go func() {
			defer wp.wg.Done()
			defer worker.Close()
			if err := dist.ServeWorker(worker, worker, dist.WorkerOptions{Name: fmt.Sprintf("bench-%d", i)}); err != nil {
				wp.mu.Lock()
				wp.errs = append(wp.errs, err)
				wp.mu.Unlock()
			}
		}()
	}
	wp.pool = dist.NewPool(conns, dist.PoolOptions{})
	timeout := time.After(10 * time.Second)
	for i := 0; i < n; i++ {
		select {
		case <-hellos:
		case <-timeout:
			wp.close()
			return nil, fmt.Errorf("only %d of %d workers said hello", i, n)
		}
	}
	return wp, nil
}

// close closes every link and waits for the worker loops to return. It
// returns the errors the workers ended with.
func (wp *workerPool) close() []error {
	wp.pool.Close()
	wp.wg.Wait()
	return wp.errs
}

// distRun is one closed-loop phase.
type distRun struct {
	SetupS     float64
	Insts      []distInstance
	Results    []*dist.MultiResult
	Latency    []time.Duration
	Wall       time.Duration
	Failed     int
	CPUSeconds float64
	AllocBytes float64
}

// distPhase sets up instances and a worker pool, solves instances one at
// a time for d, and closes the pool.
func distPhase(o *outcome, seed uint64, d time.Duration, workers int) (*distRun, error) {
	type state struct {
		insts []distInstance
		wp    *workerPool
	}
	n := int(math.Ceil(d.Seconds()*distOpsPerSecond)) + 10
	st, setupS, err := timeSetup(func() (state, error) {
		insts, err := distInputs(seed, n)
		if err != nil {
			return state{}, err
		}
		wp, err := startPool(workers)
		if err != nil {
			return state{}, err
		}
		return state{insts: insts, wp: wp}, nil
	}, func(s state) { s.wp.close() })
	if err != nil {
		return nil, err
	}
	defer func() {
		for _, err := range st.wp.close() {
			o.failf("dist: worker ended with an error: %v", err)
		}
	}()
	run := &distRun{SetupS: setupS}
	am, cm := startAlloc(), startCPU()
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		in := st.insts[i%n]
		t0 := time.Now()
		res, err := st.wp.pool.Solve(in.MC, in.Opts)
		run.Latency = append(run.Latency, time.Since(t0))
		run.Insts = append(run.Insts, in)
		run.Results = append(run.Results, res)
		if err != nil {
			run.Failed++
			o.failf("dist: instance %d: solve error: %v", i, err)
		}
	}
	run.Wall = time.Since(start)
	run.CPUSeconds = cm.seconds()
	run.AllocBytes = am.bytes()
	if len(run.Results) == 0 {
		return nil, errNoOps
	}
	return run, nil
}

// sameBits reports how a fanned-out result differs from the local
// reference, or "" when every merged allocation and status is
// bit-identical.
func sameBits(want, got *dist.MultiResult) string {
	if got == nil {
		return "no result"
	}
	if got.Status != want.Status || len(got.Cells) != len(want.Cells) {
		return fmt.Sprintf("status/cells %v/%d, local %v/%d", got.Status, len(got.Cells), want.Status, len(want.Cells))
	}
	for i := range want.Cells {
		w, g := want.Cells[i], got.Cells[i]
		if g.Status != w.Status {
			return fmt.Sprintf("cell %d status %v, local %v", i, g.Status, w.Status)
		}
		if g.Alloc == nil || w.Alloc == nil || len(g.Alloc.UserOf) != len(w.Alloc.UserOf) || len(g.Alloc.PowerW) != len(w.Alloc.PowerW) {
			return fmt.Sprintf("cell %d allocation missing or mis-sized", i)
		}
		for rb := range w.Alloc.UserOf {
			if g.Alloc.UserOf[rb] != w.Alloc.UserOf[rb] || math.Float64bits(g.Alloc.PowerW[rb]) != math.Float64bits(w.Alloc.PowerW[rb]) {
				return fmt.Sprintf("cell %d RB %d differs from the local reference", i, rb)
			}
		}
	}
	return ""
}

// checkDist compares every fanned-out result with its local reference and
// requires that no worker reply was quarantined as tampered.
func checkDist(o *outcome, run *distRun, refs []*dist.MultiResult) {
	if len(refs) != len(run.Results) {
		o.failf("dist: %d local references for %d solves", len(refs), len(run.Results))
		return
	}
	for i, res := range run.Results {
		if res == nil {
			continue // already a failed operation
		}
		if refs[i] == nil {
			o.failf("dist: instance %d has no local reference", i)
			continue
		}
		if diff := sameBits(refs[i], res); diff != "" {
			o.failf("dist: instance %d: %s", i, diff)
		}
		if res.Stats.TamperedQuarantined != 0 {
			o.failf("dist: instance %d quarantined %d tampered replies", i, res.Stats.TamperedQuarantined)
		}
	}
}

// localRefs solves every instance of the run with dist.SolveLocal, over
// workers goroutines; these reference solves are not part of any metric.
func localRefs(o *outcome, run *distRun, workers int) []*dist.MultiResult {
	refs := make([]*dist.MultiResult, len(run.Insts))
	errs := make([]error, len(run.Insts))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				refs[i], errs[i] = dist.SolveLocal(run.Insts[i].MC, run.Insts[i].Opts)
			}
		}()
	}
	for i := range run.Insts {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			o.failf("dist: instance %d: local reference: %v", i, err)
		}
	}
	return refs
}

// distEndToEnd records a phase's end-to-end metrics.
func distEndToEnd(o *outcome, run *distRun) {
	n := len(run.Results)
	lat := ms(run.Latency)
	exact, cells := 0, 0
	for _, res := range run.Results {
		if res == nil {
			continue
		}
		for _, c := range res.Cells {
			cells++
			if c.Status == guard.StatusConverged {
				exact++
			}
		}
	}
	o.set("setup_s", run.SetupS, setupReps)
	o.setQuantile("latency_p50_ms", lat, 0.5)
	o.setQuantile("latency_tail_ms", lat, 0.9)
	o.setQuantile("latency_p90_ms", lat, 0.9)
	o.set("throughput_ops_s", ratio(float64(n-run.Failed), run.Wall.Seconds()), n)
	o.set("success_ratio", ratio(float64(exact), float64(cells)), cells)
	o.set("failed_ratio", ratio(float64(run.Failed), float64(n)), n)
	o.set("cpu_ms_per_op", 1e3*run.CPUSeconds/float64(n), n)
	o.set("alloc_mb_per_op", run.AllocBytes/float64(n)/(1<<20), n)
}

// runDist is the dist-sweep workload.
func runDist(cfg config) (*outcome, error) {
	o := newOutcome()
	if !cfg.Trace {
		run, err := distPhase(o, cfg.Seed, cfg.duration(), cfg.Workers)
		if err != nil {
			return nil, err
		}
		checkDist(o, run, localRefs(o, run, cfg.Workers))
		o.Attempted, o.Failed = len(run.Results), run.Failed
		distEndToEnd(o, run)
		return o, nil
	}
	ref, err := distPhase(o, cfg.Seed, cfg.refDuration(), cfg.Workers)
	if err != nil {
		return nil, err
	}
	checkDist(o, ref, localRefs(o, ref, cfg.Workers))
	run, err := distPhase(o, cfg.Seed, cfg.duration(), cfg.Workers)
	if err != nil {
		return nil, err
	}
	o.Attempted = len(ref.Results) + len(run.Results)
	o.Failed = ref.Failed + run.Failed
	return o, distLayers(o, cfg, run, quantile(ms(ref.Latency), 0.5))
}

// distLayers replays each traced-phase solve under a replay span: the
// dist.SolveLocal reference (which also checks the fan-out's bits), then,
// for every distReplayStride-th solve, every sweep's per-cell path — column model, fingerprint, compile, greedy
// incumbent, wire encode/decode of the cell IR, the cell solve with the
// shipped incumbent, wire encode/decode of the result, and
// recertification. dist exposes no stage boundaries, so the sweeps'
// interference folding is mirrored here from the accepted allocations.
func distLayers(o *outcome, cfg config, run *distRun, refP50 float64) error {
	rec := newRecorder()
	refs := make([]*dist.MultiResult, len(run.Results))
	var local []float64
	var cellMs []float64
	var nodes, nodeBytes, subBytes, resBytes float64
	var nodeTime time.Duration
	solves := 0
	w := wire.GetWriter()
	defer wire.PutWriter(w)
	for i, in := range run.Insts {
		root := rec.begin("dist.replay", i, -1)
		var err error
		d := rec.timed("dist.local_solve", i, root, func() { refs[i], err = dist.SolveLocal(in.MC, in.Opts) })
		if err != nil {
			o.failf("dist: instance %d: local reference: %v", i, err)
		}
		local = append(local, float64(d)/float64(time.Millisecond))
		if i%distReplayStride != 0 {
			rec.end(root)
			continue
		}
		var allocs []*qos.Allocation
		for sweep := 0; sweep < distSweeps; sweep++ {
			interf := interference(in.MC, allocs)
			next := make([]*qos.Allocation, len(in.MC.Cells))
			for c := range in.MC.Cells {
				cs, err := replayCell(rec, w, i, root, foldCell(in.MC, c, interf), in.Opts.Budget)
				if err != nil {
					return fmt.Errorf("instance %d sweep %d cell %d: %w", i, sweep, c, err)
				}
				next[c] = cs.Alloc
				cellMs = append(cellMs, float64(cs.Time)/float64(time.Millisecond))
				nodes += float64(cs.Nodes)
				nodeTime += cs.Time
				nodeBytes += cs.AllocBytes
				subBytes += float64(cs.SubBytes)
				resBytes += float64(cs.ResBytes)
				solves++
			}
			allocs = next
		}
		rec.end(root)
	}
	checkDist(o, run, refs)

	n := len(run.Results)
	var st dist.Stats
	dispatched := 0
	for _, res := range run.Results {
		if res == nil {
			continue
		}
		s := res.Stats
		st.Cells += s.Cells * s.Sweeps
		st.RemoteAccepted += s.RemoteAccepted
		st.Hedged += s.Hedged
		st.Redispatched += s.Redispatched
		st.LocalFallback += s.LocalFallback
		st.DuplicatesIgnored += s.DuplicatesIgnored
		// A worker's report counts over the pool's lifetime, and one pool
		// serves the whole phase, so the last report holds the total.
		dispatched = 0
		for _, wr := range s.Workers {
			dispatched += wr.Dispatched
		}
	}
	setColumnLayers(o, rec)
	o.set("minlp.nodes_per_solve", ratio(nodes, float64(solves)), solves)
	o.set("minlp.us_per_node", ratio(float64(nodeTime)/float64(time.Microsecond), nodes), int(nodes))
	o.set("minlp.alloc_kb_per_node", ratio(nodeBytes/1024, nodes), int(nodes))
	setSpanQuantile(o, rec, "wire.encode_us", "wire.encode", 0.5, time.Microsecond)
	setSpanQuantile(o, rec, "wire.decode_us", "wire.decode", 0.5, time.Microsecond)
	o.set("wire.subproblem_bytes", ratio(subBytes, float64(solves)), solves)
	o.set("wire.result_bytes", ratio(resBytes, float64(solves)), solves)
	localP50 := quantile(local, 0.5)
	fanP50 := quantile(ms(run.Latency), 0.5)
	o.set("dist.local_solve_ms", localP50, len(local))
	o.set("dist.fanout_over_local", ratio(fanP50, localP50), n)
	o.setQuantile("dist.cell_solve_ms_p50", cellMs, 0.5)
	o.setQuantile("dist.cell_solve_ms_p90", cellMs, 0.9)
	o.set("dist.remote_accepted_ratio", ratio(float64(st.RemoteAccepted), float64(st.Cells)), st.Cells)
	o.set("dist.dispatches_per_cell", ratio(float64(dispatched), float64(st.Cells)), st.Cells)
	o.set("dist.hedged", ratio(float64(st.Hedged), float64(n)), n)
	o.set("dist.redispatched", ratio(float64(st.Redispatched), float64(n)), n)
	o.set("dist.local_fallback", ratio(float64(st.LocalFallback), float64(n)), n)
	o.set("dist.duplicates_ignored", ratio(float64(st.DuplicatesIgnored), float64(n)), n)
	return finishTrace(o, cfg, rec, fanP50, refP50)
}

// cellSolve is what one replayed per-cell solve measured.
type cellSolve struct {
	Alloc      *qos.Allocation
	Nodes      int
	Time       time.Duration
	AllocBytes float64
	SubBytes   int
	ResBytes   int
}

// replayCell replays one cell's dispatch path on the current goroutine.
func replayCell(rec *recorder, w *wire.Writer, op, parent int, p *qos.Problem, b guard.Budget) (cellSolve, error) {
	var cs cellSolve
	var cm *qos.Columns
	var err error
	rec.timed("qos.column_model", op, parent, func() { cm, err = p.ColumnModel() })
	if err != nil {
		return cs, err
	}
	var fp prob.Fingerprint
	rec.timed("prob.fingerprint", op, parent, func() { fp = cm.IR.Fingerprint() })
	rec.timed("prob.compile", op, parent, func() { _, err = cm.IR.MILP() })
	if err != nil {
		return cs, fmt.Errorf("compile: %w", err)
	}
	var x0 []float64
	rec.timed("qos.greedy_incumbent", op, parent, func() { x0, _ = cm.GreedyIncumbent() })
	w.Reset()
	rec.timed("wire.encode", op, parent, func() { cm.IR.EncodeWire(w) })
	cs.SubBytes = w.Len()
	var ir *prob.Problem
	rec.timed("wire.decode", op, parent, func() { ir, err = prob.DecodeProblem(w.Bytes(), nil) })
	if err != nil {
		return cs, fmt.Errorf("decode subproblem: %w", err)
	}
	var res *prob.Result
	am := startAlloc()
	cs.Time = rec.timed("dist.cell_solve", op, parent, func() {
		res, err = prob.Solve(ir, prob.Options{Budget: b, Incumbent: x0})
	})
	cs.AllocBytes = am.bytes()
	if res == nil {
		return cs, fmt.Errorf("cell solve: %v", err)
	}
	if res.MILP != nil {
		cs.Nodes = res.MILP.Nodes
	}
	w.Reset()
	rec.timed("wire.result_encode", op, parent, func() { res.EncodeWire(w, fp) })
	cs.ResBytes = w.Len()
	var got *prob.Result
	rec.timed("wire.result_decode", op, parent, func() { got, _, err = prob.DecodeResult(w.Bytes(), nil) })
	if err != nil {
		return cs, fmt.Errorf("decode result: %w", err)
	}
	if got.Status == guard.StatusConverged {
		rec.timed("prob.certify", op, parent, func() { err = prob.Recertify(cm.IR, got) })
		if err == nil {
			cs.Alloc, err = cm.Allocation(got.X)
			return cs, err
		}
	}
	// The coordinator's last rung: the greedy allocation.
	cs.Alloc, err = p.SolveGreedy()
	return cs, err
}

// interference mirrors the coordinator's coupling round: cell i's RB b
// receives the sum over j != i, in ascending j, of Coupling[i][j] times
// cell j's power on b. Nil allocations (the first sweep) contribute none.
func interference(mc *dist.MultiCell, allocs []*qos.Allocation) [][]float64 {
	if mc.Coupling == nil || allocs == nil {
		return nil
	}
	nRB := mc.Cells[0].Inst.Params.NumRBs
	out := make([][]float64, len(mc.Cells))
	for i := range out {
		out[i] = make([]float64, nRB)
		for j, a := range allocs {
			if j == i || a == nil || mc.Coupling[i][j] == 0 {
				continue
			}
			for b, pw := range a.PowerW {
				out[i][b] += mc.Coupling[i][j] * pw
			}
		}
	}
	return out
}

// foldCell mirrors the coordinator's interference folding: a clone of
// cell i whose gains are scaled by N/(N+I[b]), so its SNR equals the
// original's SINR.
func foldCell(mc *dist.MultiCell, i int, interf [][]float64) *qos.Problem {
	src := mc.Cells[i]
	cp := *src
	inst := *src.Inst
	inst.Gain = make([][]float64, len(src.Inst.Gain))
	for u, row := range src.Inst.Gain {
		scaled := make([]float64, len(row))
		for b, g := range row {
			scale := 1.0
			if interf != nil && interf[i][b] > 0 {
				scale = inst.NoiseW / (inst.NoiseW + interf[i][b])
			}
			scaled[b] = g * scale
		}
		inst.Gain[u] = scaled
	}
	cp.Inst = &inst
	return &cp
}
