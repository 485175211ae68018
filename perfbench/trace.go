package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Span is one timed call into a layer. Spans of one benchmark operation
// share Op; Parent is the index of the enclosing span, -1 for a root.
// Start and End are offsets from the recorder's creation.
type Span struct {
	Name   string        `json:"name"`
	Op     int           `json:"op"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// Dur returns the span's duration.
func (s Span) Dur() time.Duration { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is not safe for
// concurrent use: every workload records from one goroutine, and the
// open-loop request spans are added after the loop has finished.
type recorder struct {
	t0    time.Time
	spans []Span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, op, parent int) int {
	r.spans = append(r.spans, Span{Name: name, Op: op, Parent: parent, Start: time.Since(r.t0), End: -1})
	return len(r.spans) - 1
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	r.spans[id].End = time.Since(r.t0)
	return r.spans[id].Dur()
}

// add records an already-timed span, given as wall-clock instants.
func (r *recorder) add(name string, op, parent int, start, end time.Time) int {
	r.spans = append(r.spans, Span{Name: name, Op: op, Parent: parent, Start: start.Sub(r.t0), End: end.Sub(r.t0)})
	return len(r.spans) - 1
}

// timed runs f under a span and returns the span's duration.
func (r *recorder) timed(name string, op, parent int, f func()) time.Duration {
	id := r.begin(name, op, parent)
	f()
	return r.end(id)
}

// durations returns the durations of every span called name.
func (r *recorder) durations(name string) []time.Duration {
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s.Dur())
		}
	}
	return out
}

// childCover returns, per span, the part of its interval that its children
// cover (overlapping children are counted once, and only inside the
// parent's interval).
func (r *recorder) childCover() []time.Duration {
	kids := make([][]Span, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	cover := make([]time.Duration, len(r.spans))
	for i, ks := range kids {
		if len(ks) == 0 {
			continue
		}
		sort.Slice(ks, func(a, b int) bool { return ks[a].Start < ks[b].Start })
		lo, hi := r.spans[i].Start, r.spans[i].End
		cur := lo
		for _, k := range ks {
			s, e := max(k.Start, cur), min(k.End, hi)
			if e > s {
				cover[i] += e - s
				cur = e
			}
		}
	}
	return cover
}

// selfTime is one span name's aggregate: how many spans, their total
// duration, and the part of it no child span covers.
type selfTime struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// selfTimes aggregates spans by name, in first-seen order.
func (r *recorder) selfTimes() []selfTime {
	cover := r.childCover()
	idx := map[string]int{}
	var out []selfTime
	for i, s := range r.spans {
		k, ok := idx[s.Name]
		if !ok {
			k = len(out)
			idx[s.Name] = k
			out = append(out, selfTime{Name: s.Name})
		}
		out[k].Count++
		out[k].Total += s.Dur()
		out[k].Self += s.Dur() - cover[i]
	}
	return out
}

// coverage is the share of parent-span time that child spans account for,
// over every span that has children: 1 means the traced layers explain the
// whole parent, and the rest is untraced glue.
func (r *recorder) coverage() float64 {
	cover := r.childCover()
	var covered, total time.Duration
	for i, c := range cover {
		if c > 0 {
			covered += c
			total += r.spans[i].Dur()
		}
	}
	return ratio(float64(covered), float64(total))
}

// write stores every span as one JSON line in dir/name.
func (r *recorder) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return fmt.Errorf("trace file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("trace encode: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("trace flush: %w", err)
	}
	return f.Close()
}
