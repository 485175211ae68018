// Command perfbench is the repository benchmark. It runs one workload by
// name for a fixed time on inputs generated from a seed, checks every
// output, and prints each metric with its unit and sample count, ending
// with one JSON result line. See README.md for the workloads, the metrics
// and how to read them.
//
//	perfbench --workload qosd-open --seed 1 --seconds 20 --trace 0
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

// config is one run's parameters.
type config struct {
	Workload string
	Seed     uint64
	Seconds  float64
	Trace    bool
	TraceDir string
	// Workers is the solver worker / worker-link count, and GOMAXPROCS.
	Workers int
}

// duration returns the measured phase length.
func (c config) duration() time.Duration {
	return time.Duration(c.Seconds * float64(time.Second))
}

// refDuration is the length of the untraced reference phase the traced
// mode runs first, to measure its own overhead: a quarter of the measured
// phase, which keeps a traced run with its replays well inside three
// minutes.
func (c config) refDuration() time.Duration { return c.duration() / 4 }

// workload runs one named workload and returns what it measured. An error
// means the workload could not run at all; wrong outputs are recorded as
// failed checks in the outcome instead.
type workload struct {
	Why string
	Run func(config) (*outcome, error)
}

// workloads is the benchmark's workload table.
var workloads = map[string]workload{
	"qosd-open": {
		Why: "open-loop Poisson arrivals at 30 req/s into qosd: queueing, URLLC priority, the forms cache and the Eq. 7 column MILP under wall-clock class deadlines",
		Run: runQosd,
	},
	"dist-sweep": {
		Why: "closed-loop 4-cell, 2-sweep solves over in-process worker links: wire codec, transport, recertification, merge and uncached per-cell column MILPs",
		Run: runDist,
	},
	"verify-exact": {
		Why: "closed-loop ReLU nets through IBP, CROWN, triangle LP and exact BnB: the same lp layer driven by large pivot-bound node LPs",
		Run: runVerify,
	},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run parses args, runs the workload and prints the result. It returns
// the process exit code: 0 only when the run finished and every output
// check passed.
func run(args []string, stdout, stderr io.Writer) int {
	cfg, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	return execute(cfg, workloads[cfg.Workload], stdout, stderr)
}

// parseArgs reads the command line.
func parseArgs(args []string, stderr io.Writer) (config, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "seed for every generated input")
	seconds := fs.Float64("seconds", 10, "length of the measured phase")
	trace := fs.Int("trace", 0, "1 runs the traced mode and prints the per-layer metrics")
	traceDir := fs.String("trace-dir", ".bench_build/trace", "directory the traced mode writes its spans to")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if _, ok := workloads[*name]; !ok {
		return config{}, fmt.Errorf("unknown workload %q (want one of %s)", *name, workloadNames())
	}
	if *seconds <= 0 {
		return config{}, fmt.Errorf("--seconds must be positive, got %g", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return config{}, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	return config{
		Workload: *name,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace == 1,
		TraceDir: *traceDir,
		Workers:  runtime.NumCPU(),
	}, nil
}

// heapLimit is the heap size at which the collector runs: a run turns
// the proportional GOGC trigger off and collects only when the heap
// reaches this limit. The workloads keep a few tens of MB live, so under
// GOGC=100 the heap sat at the runtime's 4 MB minimum goal and the
// collector ran hundreds of cycles a second (about 600 on dist-sweep).
// Every cycle stops all goroutines twice, and on a shared host each stop
// waits for whichever vCPU the host has descheduled, so wall times swung
// with other tenants' load far more than the solvers' own work did. At
// this limit a cycle runs every few hundred MB of allocation.
const heapLimit = 256 << 20

// execute runs a parsed configuration and prints its result.
func execute(cfg config, wl workload, stdout, stderr io.Writer) int {
	runtime.GOMAXPROCS(cfg.Workers)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer debug.SetMemoryLimit(debug.SetMemoryLimit(heapLimit))
	o, err := wl.Run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	if err := emit(stdout, cfg.Workload, cfg.Trace, o); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.Workload, err)
		return 1
	}
	if len(o.Checks) > 0 {
		fmt.Fprintf(stderr, "perfbench: %s: %d output checks failed\n", cfg.Workload, len(o.Checks))
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return fmt.Sprint(names)
}

// setupReps is how many times a run builds its set-up; setup_s is the
// median, so one slow build (page faults, a GC cycle) does not move it.
// qosd-open's set-up takes under 2 ms, and within one run a stretch of
// consecutive builds can run 30% faster or slower than the rest. Over
// eight runs the median of 15 builds spread by 0.09 and that of 45 by
// 0.06, so a run builds a few dozen times.
const setupReps = 41

// timeSetup builds a workload's set-up setupReps times, keeps the last one
// and releases the others, and returns the median build time in seconds.
func timeSetup[T any](build func() (T, error), release func(T)) (T, float64, error) {
	var kept T
	secs := make([]float64, 0, setupReps)
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		s, err := build()
		d := time.Since(t0)
		if err != nil {
			if i > 0 {
				release(kept)
			}
			var zero T
			return zero, 0, err
		}
		secs = append(secs, d.Seconds())
		if i > 0 {
			release(kept)
		}
		kept = s
	}
	return kept, quantile(secs, 0.5), nil
}

// allocMeter measures heap allocation over an interval.
type allocMeter struct{ before uint64 }

func startAlloc() allocMeter {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return allocMeter{before: m.TotalAlloc}
}

// bytes returns the bytes allocated since the meter started.
func (a allocMeter) bytes() float64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.TotalAlloc - a.before)
}

// cpuMeter measures the process's user plus system CPU time over an
// interval. Unlike wall time it leaves out time the host gave to other
// tenants, so it is the steadier of the two on a shared machine.
type cpuMeter struct{ before time.Duration }

func startCPU() cpuMeter { return cpuMeter{before: processCPU()} }

// seconds returns the CPU seconds used since the meter started.
func (c cpuMeter) seconds() float64 { return (processCPU() - c.before).Seconds() }

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		// RUSAGE_SELF with a valid pointer cannot fail; a zero reading
		// would show as a 0 metric, which emit's readers flag.
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// errNoOps is returned when a workload completed no operation at all.
var errNoOps = errors.New("no operation completed in the measured phase")
