package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"repro/internal/obs"
	"repro/internal/serve"
)

// service is an in-process placement service (internal/serve) on a
// loopback port, with a client that keeps at most two connections.
type service struct {
	m      *serve.Manager
	srv    *http.Server
	done   chan error
	url    string
	client *http.Client
}

// startService starts a manager with the given job slots and per-job
// workers, durable under stateDir (which enables the artifact store and
// so the cached answer to an identical resubmission).
func startService(stateDir string, jobs, workers int) (*service, error) {
	m, err := serve.NewManager(serve.Options{Jobs: jobs, Workers: workers, StateDir: stateDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		m.Shutdown(context.Background())
		return nil, err
	}
	s := &service{
		m:    m,
		srv:  &http.Server{Handler: serve.NewServer(m, serve.ServerOptions{})},
		done: make(chan error, 1),
		url:  "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2, DisableCompression: true,
		}},
	}
	go func() { s.done <- s.srv.Serve(ln) }()
	return s, nil
}

// close stops the HTTP server and drains the manager; it returns once
// both have stopped.
func (s *service) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.client.CloseIdleConnections()
	err := s.srv.Shutdown(ctx)
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if merr := s.m.Shutdown(ctx); err == nil {
		err = merr
	}
	return err
}

// submission is one job as the client saw it.
type submission struct {
	id     string
	cached bool
	// post is the POST /jobs round trip, fetch the GET result.pl round
	// trip, and total the whole job from POST until result.pl arrived
	// (or until the submission failed).
	post, fetch, total time.Duration
	pl                 []byte
	rejected           bool // 429: the queue was full
	err                error
}

// submit posts a job spec, follows the job's event stream until it is
// terminal, and fetches result.pl.
func (s *service) submit(spec []byte) (sub submission) {
	t0 := time.Now()
	defer func() { sub.total = time.Since(t0) }()
	resp, err := s.client.Post(s.url+"/jobs", "application/json", bytes.NewReader(spec))
	if err != nil {
		sub.err = err
		return sub
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sub.post = time.Since(t0)
	switch {
	case err != nil:
		sub.err = err
		return sub
	case resp.StatusCode == http.StatusTooManyRequests:
		sub.rejected = true
		sub.err = fmt.Errorf("submission rejected: %s", bytes.TrimSpace(body))
		return sub
	case resp.StatusCode != http.StatusAccepted:
		sub.err = fmt.Errorf("POST /jobs: %s: %s", resp.Status, bytes.TrimSpace(body))
		return sub
	}
	var st serve.Status
	if err := json.Unmarshal(body, &st); err != nil {
		sub.err = err
		return sub
	}
	sub.id, sub.cached = st.ID, st.Cached
	// The event stream ends when the job reaches a terminal state.
	if _, err := s.get("/jobs/" + st.ID + "/events"); err != nil {
		sub.err = err
		return sub
	}
	t1 := time.Now()
	sub.pl, sub.err = s.get("/jobs/" + st.ID + "/result.pl")
	sub.fetch = time.Since(t1)
	return sub
}

func (s *service) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

func (s *service) status(id string) (serve.Status, error) {
	var st serve.Status
	raw, err := s.get("/jobs/" + id)
	if err == nil {
		err = json.Unmarshal(raw, &st)
	}
	return st, err
}

func (s *service) report(id string) (*obs.Report, error) {
	raw, err := s.get("/jobs/" + id + "/report")
	if err != nil {
		return nil, err
	}
	var rep obs.Report
	if err := json.Unmarshal(raw, &rep); err != nil {
		return nil, fmt.Errorf("job %s report: %w", id, err)
	}
	return &rep, nil
}

// totalsMS lists the submissions' whole latencies in milliseconds.
func totalsMS(subs []submission) []float64 {
	ms := make([]float64, len(subs))
	for i, s := range subs {
		ms[i] = millis(s.total)
	}
	return ms
}

// jobSpec encodes a submission of an inline Bookshelf bundle.
func jobSpec(spec serve.Spec) []byte {
	raw, err := json.Marshal(spec)
	if err != nil {
		panic(err) // serve.Spec always encodes
	}
	return raw
}

// serveStats summarizes the serving layer from the client's timings and
// the jobs' status timestamps. fresh are the submissions that ran the
// placer, with their final statuses; all is every submission.
func (b *bench) serveStats(fresh []submission, statuses []serve.Status, all []submission) {
	var post, wait, run, fetch []float64
	hits, rejected := 0, 0
	for _, sub := range all {
		if sub.rejected {
			rejected++
		}
		if sub.err == nil {
			fetch = append(fetch, millis(sub.fetch))
			if sub.cached {
				hits++
			}
		}
	}
	for _, sub := range fresh {
		if sub.err == nil {
			post = append(post, millis(sub.post))
		}
	}
	for _, st := range statuses {
		if st.Started != nil && st.Finished != nil {
			wait = append(wait, millis(st.Started.Sub(st.Submitted)))
			run = append(run, millis(st.Finished.Sub(*st.Started)))
		}
	}
	b.set("serve.submit_ms", median(post), "ms")
	b.set("serve.queue_wait_ms", median(wait), "ms")
	b.set("serve.run_ms", median(run), "ms")
	b.set("serve.fetch_ms", median(fetch), "ms")
	b.set("serve.rejected", float64(rejected), "count")
	b.set("store.hits", float64(hits), "count")
	b.set("store.hit_ratio", float64(hits)/float64(len(all)), "ratio")
}
