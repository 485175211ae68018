// Command qosd runs the overload-safe QoS allocation service (internal/serve)
// in one of two modes:
//
// Workload mode (default) drives a seeded synthetic request stream through
// the service and prints a JSON summary of outcomes and service stats —
// the operational smoke test behind the rcrbench qosd probes:
//
//	qosd -requests 48 -seed 1
//	qosd -requests 200 -rate 0.5 -burst 4        # forced overload: typed sheds
//
// Serve mode (-listen) runs an HTTP front end until SIGINT/SIGTERM, then
// drains gracefully:
//
//	qosd -listen 127.0.0.1:8080
//	curl -X POST :8080/solve -d '{"class":"URLLC","seed":7}'
//	curl :8080/stats
//
// The exit code reports service health, not any single solve: 0 when the run
// finished with zero recovered panics, zero uncertified responses, and zero
// internal errors; 1 otherwise. Individual responses carry their own typed
// outcome (and the qossolver-compatible exit code) in the JSON.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/guard"
	"repro/internal/qos"
	"repro/internal/serve"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qosd:", err)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// options is the parsed flag set.
type options struct {
	requests int
	seed     uint64
	problems int
	embb     int
	urllc    int
	mmtc     int
	rbs      int

	workers  int
	queue    int
	batch    int
	rate     float64
	burst    float64
	maxevals int
	listen   string
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("qosd", flag.ContinueOnError)
	fs.IntVar(&o.requests, "requests", 48, "workload mode: number of requests to drive")
	fs.Uint64Var(&o.seed, "seed", 1, "master seed for instances and request seeds")
	fs.IntVar(&o.problems, "problems", 4, "number of distinct instances to rotate through")
	fs.IntVar(&o.embb, "embb", 1, "eMBB users per instance")
	fs.IntVar(&o.urllc, "urllc", 1, "URLLC users per instance")
	fs.IntVar(&o.mmtc, "mmtc", 1, "mMTC users per instance")
	fs.IntVar(&o.rbs, "rbs", 6, "resource blocks per instance")
	fs.IntVar(&o.workers, "workers", 0, "solver pool size (0 = RCR_WORKERS / GOMAXPROCS)")
	fs.IntVar(&o.queue, "queue", 0, "per-class queue depth (0 = default)")
	fs.IntVar(&o.batch, "batch", 0, "mMTC coalescing batch size (0 = default)")
	fs.Float64Var(&o.rate, "rate", 0, "admission tokens per submission tick (0 = no rate limit)")
	fs.Float64Var(&o.burst, "burst", 0, "admission token-bucket capacity")
	fs.IntVar(&o.maxevals, "maxevals", 0, "replace per-class budgets with an eval-only cap (0 = class defaults); eval caps have no wall clock, so outcomes become load-independent")
	fs.StringVar(&o.listen, "listen", "", "serve mode: HTTP listen address (empty = workload mode)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if o.requests < 1 {
		return o, fmt.Errorf("-requests must be at least 1")
	}
	if o.problems < 1 {
		return o, fmt.Errorf("-problems must be at least 1")
	}
	return o, nil
}

func (o options) config() serve.Config {
	cfg := serve.Config{
		Workers:    o.workers,
		QueueDepth: o.queue,
		BatchSize:  o.batch,
		AdmitRate:  o.rate,
		AdmitBurst: o.burst,
	}
	if o.maxevals > 0 {
		// Eval-only budgets: the default class deadlines classify outcomes by
		// the wall clock (a loaded host turns served into degraded), which is
		// right for production but wrong for reproducible runs and the
		// worker-invariance tests.
		cfg.Budgets = map[qos.Class]guard.Budget{}
		for cl := range serve.DefaultBudgets() {
			cfg.Budgets[cl] = guard.Budget{MaxEvals: o.maxevals}
		}
	}
	return cfg
}

// run executes one qosd invocation and returns the process exit code.
func run(args []string, stdout io.Writer) (int, error) {
	o, err := parseFlags(args)
	if err != nil {
		return 2, err
	}
	if o.listen != "" {
		return runServe(o, stdout)
	}
	return runWorkload(o, stdout)
}

// statsJSON is serve.Stats with string map keys so the document is stable
// and greppable.
type statsJSON struct {
	Admitted        int64                  `json:"admitted"`
	ShedRateLimit   int64                  `json:"shedRateLimit"`
	ShedQueueFull   int64                  `json:"shedQueueFull"`
	ShedDraining    int64                  `json:"shedDraining"`
	Served          int64                  `json:"served"`
	Degraded        int64                  `json:"degraded"`
	DeadlineMissed  int64                  `json:"deadlineMissed"`
	Infeasible      int64                  `json:"infeasible"`
	Canceled        int64                  `json:"canceled"`
	Uncertified     int64                  `json:"uncertified"`
	Errors          int64                  `json:"errors"`
	PanicsRecovered int64                  `json:"panicsRecovered"`
	CacheHits       int64                  `json:"cacheHits"`
	CacheMisses     int64                  `json:"cacheMisses"`
	Breakers        map[string]string      `json:"breakers"`
	BreakerOpens    int64                  `json:"breakerOpens"`
	Latency         map[string]latencyJSON `json:"latency"`
}

type latencyJSON struct {
	Count int64  `json:"count"`
	P50   string `json:"p50"`
	P99   string `json:"p99"`
}

func statsDoc(st serve.Stats) statsJSON {
	doc := statsJSON{
		Admitted: st.Admitted, ShedRateLimit: st.ShedRateLimit,
		ShedQueueFull: st.ShedQueueFull, ShedDraining: st.ShedDraining,
		Served: st.Served, Degraded: st.Degraded, DeadlineMissed: st.DeadlineMissed,
		Infeasible: st.Infeasible, Canceled: st.Canceled, Uncertified: st.Uncertified,
		Errors: st.Errors, PanicsRecovered: st.PanicsRecovered,
		CacheHits: st.CacheHits, CacheMisses: st.CacheMisses,
		Breakers: make(map[string]string, len(st.Breakers)), BreakerOpens: st.BreakerOpens,
		Latency: make(map[string]latencyJSON, len(st.Latency)),
	}
	for r, b := range st.Breakers {
		doc.Breakers[string(r)] = b.String()
	}
	for cl, l := range st.Latency {
		doc.Latency[cl.String()] = latencyJSON{Count: l.Count, P50: l.P50.String(), P99: l.P99.String()}
	}
	return doc
}

// healthy is the service-level pass/fail behind the exit code: the run may
// shed and degrade freely, but it must never crash a worker, serve an
// uncertified answer, or hit an internal error.
func healthy(st serve.Stats) bool {
	return st.PanicsRecovered == 0 && st.Uncertified == 0 && st.Errors == 0
}

// summary is the workload-mode JSON document.
type summary struct {
	Requests int                       `json:"requests"`
	Seed     uint64                    `json:"seed"`
	Outcomes map[string]int            `json:"outcomes"`
	ByClass  map[string]map[string]int `json:"byClass"`
	Stats    statsJSON                 `json:"stats"`
	Healthy  bool                      `json:"healthy"`
}

// runWorkload drives a seeded synthetic stream through the service.
func runWorkload(o options, stdout io.Writer) (int, error) {
	problems := make([]*qos.Problem, o.problems)
	for i := range problems {
		p, err := qos.GenerateProblem(o.embb, o.urllc, o.mmtc, o.rbs, o.seed+uint64(i))
		if err != nil {
			return 1, err
		}
		problems[i] = p
	}
	classes := []qos.Class{qos.ClassURLLC, qos.ClassEMBB, qos.ClassMMTC}
	s := serve.New(o.config())
	chans := make([]<-chan serve.Response, o.requests)
	reqClass := make([]qos.Class, o.requests)
	for i := 0; i < o.requests; i++ {
		cl := classes[i%len(classes)]
		reqClass[i] = cl
		chans[i] = s.Submit(serve.Request{
			ID:      uint64(i),
			Class:   cl,
			Problem: problems[i%len(problems)],
			Seed:    o.seed + uint64(i),
		})
	}
	outcomes := map[string]int{}
	byClass := map[string]map[string]int{}
	for i, ch := range chans {
		resp := <-ch
		key := resp.Outcome.String()
		outcomes[key]++
		cl := reqClass[i].String()
		if byClass[cl] == nil {
			byClass[cl] = map[string]int{}
		}
		byClass[cl][key]++
	}
	s.Close()
	st := s.Stats()
	doc := summary{
		Requests: o.requests,
		Seed:     o.seed,
		Outcomes: outcomes,
		ByClass:  byClass,
		Stats:    statsDoc(st),
		Healthy:  healthy(st),
	}
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return 1, err
	}
	if !doc.Healthy {
		return 1, fmt.Errorf("unhealthy run: %d panics, %d uncertified, %d errors",
			st.PanicsRecovered, st.Uncertified, st.Errors)
	}
	return 0, nil
}

// solveRequest is the POST /solve wire format. The instance itself is
// generated server-side from the seeded dimensions, keeping the wire format
// small and every solve reproducible from the document alone.
type solveRequest struct {
	ID    uint64 `json:"id"`
	Class string `json:"class"` // "eMBB" | "URLLC" | "mMTC" (case-insensitive)
	Seed  uint64 `json:"seed"`
	EMBB  int    `json:"embb"`
	URLLC int    `json:"urllc"`
	MMTC  int    `json:"mmtc"`
	RBs   int    `json:"rbs"`
}

// solveResponse is the POST /solve reply.
type solveResponse struct {
	ID           uint64    `json:"id"`
	Outcome      string    `json:"outcome"`
	ExitCode     int       `json:"exitCode"`
	Status       string    `json:"status"`
	Rung         string    `json:"rung,omitempty"`
	Degradation  string    `json:"degradation,omitempty"`
	UserOf       []int     `json:"userOf,omitempty"`
	PowerW       []float64 `json:"powerW,omitempty"`
	TotalRateBps float64   `json:"totalRateBps,omitempty"`
	AllQoSMet    bool      `json:"allQoSMet"`
	// Report is the full per-user QoS diagnosis (rates, per-class QoS
	// tallies, budget flags) for clients that need more than the summary
	// fields above.
	Report *qos.Report `json:"report,omitempty"`
	Error  string      `json:"error,omitempty"`
}

func parseClass(name string) (qos.Class, bool) {
	switch strings.ToLower(name) {
	case "embb":
		return qos.ClassEMBB, true
	case "urllc":
		return qos.ClassURLLC, true
	case "mmtc":
		return qos.ClassMMTC, true
	}
	return 0, false
}

// newMux builds the HTTP surface over a running server.
func newMux(s *serve.Server) *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/solve", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, "POST only", http.StatusMethodNotAllowed)
			return
		}
		var sr solveRequest
		if err := json.NewDecoder(r.Body).Decode(&sr); err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		cl, ok := parseClass(sr.Class)
		if !ok {
			http.Error(w, fmt.Sprintf("bad request: unknown class %q", sr.Class), http.StatusBadRequest)
			return
		}
		if sr.EMBB <= 0 && sr.URLLC <= 0 && sr.MMTC <= 0 {
			sr.EMBB, sr.URLLC, sr.MMTC = 1, 1, 1
		}
		if sr.RBs <= 0 {
			sr.RBs = 6
		}
		p, err := qos.GenerateProblem(sr.EMBB, sr.URLLC, sr.MMTC, sr.RBs, sr.Seed)
		if err != nil {
			http.Error(w, "bad request: "+err.Error(), http.StatusBadRequest)
			return
		}
		resp := s.Do(serve.Request{ID: sr.ID, Class: cl, Problem: p, Seed: sr.Seed, Ctx: r.Context()})
		out := solveResponse{
			ID:       resp.ID,
			Outcome:  resp.Outcome.String(),
			ExitCode: resp.Outcome.ExitCode(),
			Status:   resp.Status.String(),
			Rung:     string(resp.Rung),
		}
		if resp.Deg != nil {
			out.Degradation = resp.Deg.String()
		}
		if resp.Alloc != nil {
			out.UserOf = resp.Alloc.UserOf
			out.PowerW = resp.Alloc.PowerW
		}
		if resp.Report != nil {
			out.TotalRateBps = resp.Report.TotalRateBps
			out.AllQoSMet = resp.Report.AllQoSMet
			out.Report = resp.Report
		}
		if resp.Err != nil {
			out.Error = resp.Err.Error()
		}
		w.Header().Set("Content-Type", "application/json")
		//lint:ignore rawwire the HTTP demo front end renders the QoS report for humans; these bytes never cross the dist worker boundary (bytes that travel between processes go through internal/wire)
		if err := json.NewEncoder(w).Encode(out); err != nil {
			return // client went away mid-write; nothing to clean up
		}
	})
	mux.HandleFunc("/stats", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(statsDoc(s.Stats())); err != nil {
			return
		}
	})
	return mux
}

// runServe runs the HTTP front end until SIGINT/SIGTERM, then drains: the
// listener stops first (no new admissions), queued solves finish, and the
// final stats document is printed so an operator sees what the run did.
func runServe(o options, stdout io.Writer) (int, error) {
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	return serveLoop(ctx, o, stdout, nil)
}

// serveLoop is runServe behind an injectable shutdown context and listener
// report: tests cancel ctx instead of raising SIGINT and read the bound
// address off ready. The finalize closure drains the server and flushes
// the single stats document; it runs exactly once no matter which path ends the loop —
// signal, listener failure, or a mid-run serve error. The previous version
// flushed only on the path it expected, so a shutdown that raced the
// listener's error could exit with the counters (and the histogram window
// they were mid-way through) never reported.
func serveLoop(ctx context.Context, o options, stdout io.Writer, ready chan<- string) (int, error) {
	s := serve.New(o.config())
	var (
		finalize sync.Once
		st       serve.Stats
		flushErr error
	)
	flush := func() {
		finalize.Do(func() {
			s.Close()
			st = s.Stats()
			enc := json.NewEncoder(stdout)
			enc.SetIndent("", "  ")
			flushErr = enc.Encode(statsDoc(st))
		})
	}
	defer flush()

	ln, err := net.Listen("tcp", o.listen)
	if err != nil {
		flush()
		return 1, err
	}
	httpSrv := &http.Server{Handler: newMux(s)}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "qosd: listening on %s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	var serveErr error
	select {
	case <-ctx.Done():
		// The drain deadline derives from the (already fired) shutdown
		// context rather than a fabricated background one: values travel,
		// only the cancellation is detached.
		shutCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(shutCtx); err != nil {
			serveErr = err
		}
	case err := <-errc:
		serveErr = err
	}
	flush()
	if flushErr != nil {
		return 1, flushErr
	}
	if serveErr != nil && serveErr != http.ErrServerClosed {
		return 1, serveErr
	}
	if !healthy(st) {
		return 1, fmt.Errorf("unhealthy run: %d panics, %d uncertified, %d errors",
			st.PanicsRecovered, st.Uncertified, st.Errors)
	}
	return 0, nil
}
