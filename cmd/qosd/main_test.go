package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/serve"
)

// runJSON runs qosd in workload mode and decodes its summary.
func runJSON(t *testing.T, args ...string) (summary, int) {
	t.Helper()
	var buf bytes.Buffer
	code, err := run(args, &buf)
	if err != nil && code == 0 {
		t.Fatalf("run(%v): %v", args, err)
	}
	var doc summary
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("run(%v) output is not JSON: %v\n%s", args, err, buf.String())
	}
	return doc, code
}

func TestWorkloadHealthySummary(t *testing.T) {
	doc, code := runJSON(t, "-requests", "12", "-seed", "3")
	if code != 0 {
		t.Fatalf("healthy workload exited %d", code)
	}
	if !doc.Healthy {
		t.Fatalf("healthy=false: %+v", doc.Stats)
	}
	total := 0
	for _, n := range doc.Outcomes {
		total += n
	}
	if total != 12 {
		t.Fatalf("outcome counts sum to %d, want 12: %v", total, doc.Outcomes)
	}
	if doc.Stats.Admitted != 12 {
		t.Fatalf("admitted %d, want 12", doc.Stats.Admitted)
	}
	for _, cl := range []string{"URLLC", "eMBB", "mMTC"} {
		if doc.ByClass[cl] == nil {
			t.Fatalf("class %s missing from byClass: %v", cl, doc.ByClass)
		}
	}
}

func TestWorkloadOverloadShedsTyped(t *testing.T) {
	doc, code := runJSON(t, "-requests", "40", "-seed", "1", "-rate", "0.25", "-burst", "1", "-workers", "2")
	if code != 0 {
		t.Fatalf("overload is a healthy condition; exited %d (stats %+v)", code, doc.Stats)
	}
	if doc.Outcomes["shed"] == 0 {
		t.Fatalf("a 4x-over-rate burst shed nothing: %v", doc.Outcomes)
	}
	if doc.Stats.Admitted+doc.Stats.ShedRateLimit+doc.Stats.ShedQueueFull != 40 {
		t.Fatalf("admission ledger does not add up: %+v", doc.Stats)
	}
	if !doc.Healthy {
		t.Fatalf("sheds flipped health: %+v", doc.Stats)
	}
}

func TestWorkloadOutcomesWorkerInvariant(t *testing.T) {
	// Eval-only budgets: with the default wall deadlines, host load decides
	// whether a borderline solve is served or degraded — allocations stay
	// bit-identical, but outcome labels would flake under a busy CI host.
	one, code1 := runJSON(t, "-requests", "18", "-seed", "7", "-workers", "1", "-maxevals", "1000000")
	eight, code8 := runJSON(t, "-requests", "18", "-seed", "7", "-workers", "8", "-maxevals", "1000000")
	if code1 != 0 || code8 != 0 {
		t.Fatalf("exit codes %d/%d, want 0/0", code1, code8)
	}
	if !reflect.DeepEqual(one.Outcomes, eight.Outcomes) {
		t.Fatalf("outcomes depend on worker count:\n1: %v\n8: %v", one.Outcomes, eight.Outcomes)
	}
	if !reflect.DeepEqual(one.ByClass, eight.ByClass) {
		t.Fatalf("per-class outcomes depend on worker count:\n1: %v\n8: %v", one.ByClass, eight.ByClass)
	}
}

func TestBadFlagsExitUsage(t *testing.T) {
	for _, args := range [][]string{
		{"-requests", "0"},
		{"-problems", "0"},
		{"-no-such-flag"},
	} {
		var buf bytes.Buffer
		code, err := run(args, &buf)
		if err == nil || code != 2 {
			t.Fatalf("run(%v) = (%d, %v), want usage error code 2", args, code, err)
		}
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s := serve.New(serve.Config{Workers: 2})
	defer s.Close()
	ts := httptest.NewServer(newMux(s))
	defer ts.Close()

	// A well-formed solve round-trips with a typed outcome and an exit code
	// from the shared taxonomy.
	resp, err := http.Post(ts.URL+"/solve", "application/json",
		strings.NewReader(`{"id": 9, "class": "URLLC", "seed": 7}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /solve status %d", resp.StatusCode)
	}
	var sr solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	if sr.ID != 9 || sr.Outcome == "" || sr.Status == "" {
		t.Fatalf("solve response missing fields: %+v", sr)
	}
	if sr.Outcome == "served" && sr.ExitCode != 0 {
		t.Fatalf("served response with exit code %d", sr.ExitCode)
	}
	if len(sr.UserOf) == 0 {
		t.Fatalf("solve response carries no allocation: %+v", sr)
	}

	// Malformed requests are 400s, not panics.
	for _, body := range []string{`{"class": "plasma"}`, `not json`} {
		r2, err := http.Post(ts.URL+"/solve", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		r2.Body.Close()
		if r2.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST /solve %q status %d, want 400", body, r2.StatusCode)
		}
	}

	// GET /solve is rejected by method.
	r3, err := http.Get(ts.URL + "/solve")
	if err != nil {
		t.Fatal(err)
	}
	r3.Body.Close()
	if r3.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /solve status %d, want 405", r3.StatusCode)
	}

	// Stats reflects the traffic above.
	r4, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer r4.Body.Close()
	var st statsJSON
	if err := json.NewDecoder(r4.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Admitted != 1 {
		t.Fatalf("stats admitted %d, want 1 (only the well-formed solve)", st.Admitted)
	}
	if st.PanicsRecovered != 0 {
		t.Fatalf("stats = %+v, want zero panics", st)
	}
}

// TestServeLoopShutdownFlushesOnce is the drain-bug pin: canceling the
// serve loop (the test's stand-in for SIGINT) must flush exactly one final
// stats document reflecting the traffic served.
func TestServeLoopShutdownFlushesOnce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	o, err := parseFlags([]string{"-listen", "127.0.0.1:0", "-workers", "2"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	ready := make(chan string, 1)
	done := make(chan struct{})
	var code int
	var loopErr error
	go func() {
		defer close(done)
		code, loopErr = serveLoop(ctx, o, &buf, ready)
	}()
	addr := <-ready

	resp, err := http.Post("http://"+addr+"/solve", "application/json",
		strings.NewReader(`{"id": 1, "class": "eMBB", "seed": 5}`))
	if err != nil {
		t.Fatal(err)
	}
	var sr solveResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if sr.Report == nil {
		t.Fatalf("solve response carries no QoS report: %+v", sr)
	}

	cancel()
	<-done
	if loopErr != nil || code != 0 {
		t.Fatalf("serveLoop = (%d, %v), want (0, nil)", code, loopErr)
	}

	// Exactly one stats document, and it saw the solve above.
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	var st statsJSON
	if err := dec.Decode(&st); err != nil {
		t.Fatalf("final stats document is not JSON: %v\n%s", err, buf.String())
	}
	if dec.More() {
		t.Fatalf("shutdown flushed more than one document:\n%s", buf.String())
	}
	if st.Admitted != 1 || st.Served+st.Degraded != 1 {
		t.Fatalf("final stats admitted %d, answered %d; want 1 and 1: %+v", st.Admitted, st.Served+st.Degraded, st)
	}
}

// TestServeLoopListenFailureStillFlushes: a bind error must not skip the
// stats flush either — one document, then the error.
func TestServeLoopListenFailureStillFlushes(t *testing.T) {
	o, err := parseFlags([]string{"-listen", "256.256.256.256:1"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	code, loopErr := serveLoop(context.Background(), o, &buf, nil)
	if code != 1 || loopErr == nil {
		t.Fatalf("serveLoop = (%d, %v), want (1, bind error)", code, loopErr)
	}
	var st statsJSON
	if err := json.Unmarshal(buf.Bytes(), &st); err != nil {
		t.Fatalf("no stats document on bind failure: %v\n%s", err, buf.String())
	}
}
