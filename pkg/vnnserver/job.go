package vnnserver

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/pkg/vnn"
)

// maxReplayEvents bounds the per-job progress buffer replayed to late
// event subscribers; older events are dropped (progress events are
// monotone snapshots, so the latest ones carry the state).
const maxReplayEvents = 256

// maxRetainedJobs bounds how many finished jobs the registry remembers
// for result/event retrieval before the oldest are forgotten.
const maxRetainedJobs = 256

// job is one query's lifecycle — verification or analysis batch alike:
// progress events buffered for replay and fanned out to live subscribers,
// then a terminal response (a *VerifyResponse or *AnalyzeResponse,
// whichever endpoint created the job).
type job struct {
	id          string
	fingerprint string
	created     time.Time

	mu      sync.Mutex
	events  []vnn.Event
	dropped int
	subs    map[chan vnn.Event]struct{}

	done chan struct{} // closed by finish
	resp any
	err  error
}

// publish buffers one progress event and forwards it to every live
// subscriber without blocking (a slow subscriber skips events rather than
// stalling the solver's progress callback).
func (j *job) publish(ev vnn.Event) {
	j.mu.Lock()
	if len(j.events) >= maxReplayEvents {
		j.events = j.events[1:]
		j.dropped++
	}
	j.events = append(j.events, ev)
	for ch := range j.subs {
		select {
		case ch <- ev:
		default:
		}
	}
	j.mu.Unlock()
}

// subscribe returns the buffered events so far plus a channel of live
// ones; the returned cancel detaches the subscription.
func (j *job) subscribe() (replay []vnn.Event, live chan vnn.Event, cancel func()) {
	ch := make(chan vnn.Event, 64)
	j.mu.Lock()
	replay = append([]vnn.Event(nil), j.events...)
	j.subs[ch] = struct{}{}
	j.mu.Unlock()
	return replay, ch, func() {
		j.mu.Lock()
		delete(j.subs, ch)
		j.mu.Unlock()
	}
}

// finish records the terminal answer and wakes everyone waiting on done.
func (j *job) finish(resp any, err error) {
	j.mu.Lock()
	j.resp, j.err = resp, err
	j.mu.Unlock()
	close(j.done)
}

// result returns the terminal answer; valid only after done is closed.
func (j *job) result() (any, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.resp, j.err
}

// finished reports whether the job has a terminal answer.
func (j *job) finished() bool {
	select {
	case <-j.done:
		return true
	default:
		return false
	}
}

// registry tracks jobs by id, retiring the oldest finished ones once more
// than maxRetainedJobs have accumulated.
type registry struct {
	mu    sync.Mutex
	jobs  map[string]*job
	order []string // creation order, for pruning
	seq   int64
}

func newRegistry() *registry {
	return &registry{jobs: make(map[string]*job)}
}

// create registers a fresh job for a query with the given fingerprint.
func (r *registry) create(fingerprint string) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	j := &job{
		id:          fmt.Sprintf("q%08d", r.seq),
		fingerprint: fingerprint,
		created:     time.Now(),
		subs:        make(map[chan vnn.Event]struct{}),
		done:        make(chan struct{}),
	}
	r.jobs[j.id] = j
	r.order = append(r.order, j.id)
	r.pruneLocked()
	return j
}

// get returns the job with the given id, or nil.
func (r *registry) get(id string) *job {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.jobs[id]
}

// pruneLocked forgets the oldest finished jobs beyond the retention cap.
// Callers hold r.mu.
func (r *registry) pruneLocked() {
	for i := 0; len(r.jobs) > maxRetainedJobs && i < len(r.order); {
		id := r.order[i]
		j, ok := r.jobs[id]
		if ok && !j.finished() {
			i++ // still running: keep, try the next-oldest
			continue
		}
		delete(r.jobs, id)
		r.order = append(r.order[:i], r.order[i+1:]...)
	}
}

// jobRun is one admitted job plus what its shared lifecycle needs; the
// route fills in everything past async before handing it to serveJob.
type jobRun struct {
	*job
	async   bool
	tr      *obs.Trace
	tn      *obs.TenantStats // nil for the model gate, which is not tenant traffic
	route   string           // tenant route label
	latency *obs.Histogram
	timeout time.Duration // <= 0 falls back to Config.DefaultTimeout
	// workers is the request's pinned worker count; 0 takes the
	// scheduler's fair share (resolved once, in runJob).
	workers int
	// counted, when set, runs after the body and before the job turns
	// terminal: routes bump their request counters there, after the
	// effort counters the body bumped (the Metrics ordering guarantee).
	counted func(err error)
}

// admitJob is the one admission block of the job routes. Admission
// happens at submit time so overload surfaces as immediate backpressure
// for sync and async clients alike; runJob releases the token. It holds
// drainMu so a job is never admitted after Drain stopped waiting, and an
// async job's wg.Add always precedes Drain's wg.Wait.
func (s *Server) admitJob(fingerprint string, async bool) (*jobRun, error) {
	s.drainMu.Lock()
	defer s.drainMu.Unlock()
	if s.draining.Load() {
		return nil, errDraining
	}
	if err := s.sched.Admit(); err != nil {
		return nil, err
	}
	if async {
		s.wg.Add(1)
	}
	return &jobRun{job: s.jobs.create(fingerprint), async: async}, nil
}

// serveJob answers an admitted job: inline for a synchronous request, or
// 202 with accepted while the job runs on. Async jobs outlive their HTTP
// request; only their deadline and drain bound them.
func (s *Server) serveJob(w http.ResponseWriter, r *http.Request, jr *jobRun, accepted any, status func(error) int, body func(ctx context.Context, workers int) (any, error)) {
	if !jr.async {
		resp, err := s.runJob(r.Context(), jr, body)
		if err != nil {
			writeError(w, status(err), err.Error())
			return
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	go func() {
		defer s.wg.Done()
		s.runJob(s.queryCtx, jr, body)
	}()
	writeJSON(w, http.StatusAccepted, accepted)
}

// runJob is the one lifecycle of an admitted job. The deadline and
// server drain both cancel the job's context. The trace root records the
// job's fingerprint, and its "queue" span covers the admission wait and
// ends even when admission fails. body runs under the scheduler with the
// job's worker count — the pinned one, else the fair share — which the
// root's "workers" attribute records, and its answer becomes the job's
// terminal result. The trace finishes when runJob returns: it covers the
// work, not the response write.
func (s *Server) runJob(parent context.Context, jr *jobRun, body func(ctx context.Context, workers int) (any, error)) (any, error) {
	start := time.Now()
	defer jr.tr.Finish()
	defer observeSince(jr.latency, start)
	defer func() { jr.tn.Route(jr.route).Count(time.Since(start)) }()
	ctx, cancel := s.deadlineContext(parent, jr.timeout)
	defer cancel()
	defer context.AfterFunc(s.queryCtx, cancel)() // drain interrupts the job

	root := jr.tr.Root()
	root.SetAttr("fingerprint", jr.fingerprint)
	queueSpan := root.Child("queue")
	var resp any
	err := s.sched.RunAdmitted(ctx, jr.tn, func(ctx context.Context, fairWorkers int) error {
		queueSpan.End()
		workers := jr.workers
		if workers == 0 {
			workers = fairWorkers
		}
		root.SetAttr("workers", workers)
		var err error
		resp, err = body(ctx, workers)
		return err
	})
	queueSpan.End() // no-op if body ran; ends the wait if admission failed
	if jr.counted != nil {
		jr.counted(err)
	}
	jr.finish(resp, err)
	return resp, err
}
