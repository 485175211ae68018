package dist

// Worker pool: one reader goroutine per link funnels frames into a single
// event channel, so the coordinator's solve loop is single-threaded — all
// health state (liveness, heartbeats, breakers, in-flight jobs) is owned by
// that loop and needs no locking. A link error is itself an event; after
// delivering it the reader exits, and the worker is dead for good (workers
// are processes — a lost link is a lost worker, reconnection is a new
// worker in a new pool).

import (
	"io"
	"sync"
	"time"

	"repro/internal/guard"
	"repro/internal/serve"
)

// PoolOptions configures worker health tracking.
type PoolOptions struct {
	// BreakerThreshold consecutive failures open a worker's circuit
	// breaker; BreakerCooldown refused dispatches later it half-opens.
	// Zero values take NewPool's defaults (3, 4); serve's per-rung
	// breakers default to (3, 8).
	BreakerThreshold int
	BreakerCooldown  int
	// DeadAfter is how long a worker may be silent (no frame of any kind)
	// before the coordinator stops dispatching to it. Zero disables
	// silence-based health (link errors still kill workers immediately).
	DeadAfter time.Duration
}

// event is one occurrence on a worker link: a frame or a terminal error.
type event struct {
	worker int
	frame  []byte
	err    error
}

// workerState is the coordinator-side view of one worker. All fields are
// owned by the solve loop.
type workerState struct {
	id      int
	link    *link
	breaker *serve.Breaker
	send    chan []byte // outbound frames, drained by writeLoop
	alive   bool
	hello   bool      // hello frame seen
	name    string    // from the hello
	last    time.Time // last frame of any kind
	job     uint64    // dispatched job awaiting reply, 0 when idle
	report  WorkerReport
}

// Pool owns a set of worker links and their reader goroutines. A Pool with
// zero workers is valid — Solve then runs entirely on the local ladder.
type Pool struct {
	workers   []*workerState
	events    chan event
	done      chan struct{}
	closeOnce sync.Once
	opts      PoolOptions
}

// NewPool wraps a set of established worker connections. The pool takes
// ownership: Close closes every link. Each conn's reader goroutine starts
// immediately, so worker hellos are buffered even before the first Solve.
func NewPool(conns []io.ReadWriteCloser, o PoolOptions) *Pool {
	if o.BreakerThreshold <= 0 {
		o.BreakerThreshold = 3
	}
	if o.BreakerCooldown <= 0 {
		o.BreakerCooldown = 4
	}
	p := &Pool{
		events: make(chan event, 16+8*len(conns)),
		done:   make(chan struct{}),
		opts:   o,
	}
	for i, c := range conns {
		ws := &workerState{
			id:      i,
			link:    newLink(c, c, c),
			breaker: serve.NewBreaker(o.BreakerThreshold, o.BreakerCooldown),
			send:    make(chan []byte, 2),
			alive:   true,
			report:  WorkerReport{Status: guard.StatusOK},
		}
		p.workers = append(p.workers, ws)
		go p.readLoop(ws)
		go p.writeLoop(ws)
	}
	return p
}

// writeLoop drains one worker's outbound frames. Dispatches must never
// block the solve loop on a slow peer: a worker that stops reading would
// otherwise deadlock the coordinator against its own backed-up event
// channel. A write failure is delivered as an event, exactly like a read
// failure — either way the link is gone.
func (p *Pool) writeLoop(ws *workerState) {
	for {
		select {
		case frame := <-ws.send:
			if err := ws.link.writeFrame(frame); err != nil {
				select {
				case p.events <- event{worker: ws.id, err: err}:
				case <-p.done:
				}
				return
			}
		case <-p.done:
			return
		}
	}
}

// readLoop pumps one link's frames into the event channel until the link
// fails or the pool closes. The terminal error is delivered as an event so
// the solve loop learns of the death in-band.
func (p *Pool) readLoop(ws *workerState) {
	for {
		frame, err := ws.link.readFrame()
		select {
		case p.events <- event{worker: ws.id, frame: frame, err: err}:
		case <-p.done:
			return
		}
		if err != nil {
			return
		}
	}
}

// Close shuts the pool down: reader goroutines unblock and exit, links
// close. Idempotent; after the first call the pool must not be used.
func (p *Pool) Close() {
	p.closeOnce.Do(func() {
		close(p.done)
		for _, ws := range p.workers {
			ws.link.Close()
		}
	})
}

// markDead retires a worker with a typed terminal status. It does not touch
// ws.job — the solve loop requeues the orphaned job first (it needs the id).
func (ws *workerState) markDead(status guard.Status) {
	ws.alive = false
	if ws.report.Status == guard.StatusOK {
		ws.report.Status = status
	}
}

// silent reports whether the worker has been quiet past the deadline.
func (ws *workerState) silent(deadAfter time.Duration, now time.Time) bool {
	return deadAfter > 0 && !ws.last.IsZero() && now.Sub(ws.last) > deadAfter
}

// idle reports whether a worker could accept a dispatch. It deliberately
// does not consult the breaker: Allow consumes a permit (and in the
// half-open state, *the* probe permit, which must be followed by a Record),
// so the breaker is asked only at the moment of an actual dispatch.
func (ws *workerState) idle() bool {
	return ws.alive && ws.hello && ws.job == 0
}
