package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"
)

// requestTimeout bounds one request; a request that runs into it counts as
// never answered.
const requestTimeout = 60 * time.Second

// client sends requests to one hslbd over at most conns keep-alive
// connections.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer // nil in an untraced run
}

func newClient(base string, conns int, tr *tracer) *client {
	t := &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: t, Timeout: requestTimeout}, tr: tr}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// maxAttempts bounds how often one request is sent: a 429 is sent again
// at once, since hslbd refuses it only after it has waited out its queue
// timeout, and the refusal's wait counts in the request's latency.
const maxAttempts = 5

// outcome is one sent request and what came back.
type outcome struct {
	req *request
	// due is when the request was due to be sent, sent when a connection
	// began sending it, and done when its answer had been read.
	due, sent, done time.Time
	attempts        int    // times sent
	refused         int    // attempts answered 429
	status          int    // of the last attempt
	cache           string // X-HSLB-Cache
	body            []byte // the answer, until check has read it
	respBytes       int
	resp            *wireResponse
	// err is set for a transport error, a status other than 200, or an
	// answer that failed its check (wrong is then also set).
	err   error
	wrong bool
}

func (o *outcome) ok() bool { return o.err == nil }

// latency is the request's latency, timed from when it was due.
func (o *outcome) latency() time.Duration { return o.done.Sub(o.due) }

// send posts r, again while it is refused with 429, and keeps the answer
// unread: check decodes and checks it, after the timed traffic, so that
// the generator's own work is not timed.
func (c *client) send(r *request, id int) outcome {
	o := outcome{req: r, sent: time.Now()}
	o.due = o.sent
	var span int
	if c.tr != nil {
		span = c.tr.begin("http "+r.path, 0, id)
	}
	for o.attempts < maxAttempts {
		o.attempts++
		o.status, o.cache, o.body, o.err = c.post(r)
		if o.err != nil || o.status != http.StatusTooManyRequests {
			break
		}
		o.refused++
	}
	o.done = time.Now()
	if c.tr != nil {
		c.tr.end(span)
	}
	return o
}

// post sends r once and reads the whole answer.
func (c *client) post(r *request) (status int, cache string, body []byte, err error) {
	resp, err := c.hc.Post(c.base+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-HSLB-Cache"), body, err
}

// check decodes o's answer and checks it against the request.
func (o *outcome) check() {
	o.respBytes = len(o.body)
	if o.err == nil && o.status != http.StatusOK {
		o.err = fmt.Errorf("status %d after %d attempts: %.200s", o.status, o.attempts, o.body)
	}
	if o.err == nil {
		var wr wireResponse
		if o.err = json.Unmarshal(o.body, &wr); o.err == nil {
			o.resp = &wr
			if o.err = checkAnswer(o.req, o.resp); o.err != nil {
				o.wrong = true
			}
		}
	}
	o.body = nil
}

// runClosed drives a closed loop of one client: each request is sent when
// the previous answer is in, until reqs run out or d has elapsed.
func runClosed(c *client, reqs []*request, d time.Duration) ([]outcome, time.Duration) {
	start := time.Now()
	var outs []outcome
	for i, r := range reqs {
		if time.Since(start) >= d {
			break
		}
		outs = append(outs, c.send(r, i))
	}
	return outs, time.Since(start)
}

// runOpen drives an open loop: request i is due at start+reqs[i].at
// whatever happened to earlier requests, and conns workers, one per
// connection, send due requests in order. Latency is timed from the due
// time, so a stall also counts against every request that waited behind it.
func runOpen(c *client, reqs []*request, conns int) ([]outcome, time.Duration) {
	type job struct {
		i   int
		due time.Time
	}
	outs := make([]outcome, len(reqs))
	jobs := make(chan job, len(reqs)) // never blocks the schedule
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				o := c.send(reqs[j.i], j.i)
				o.due = j.due
				outs[j.i] = o
			}
		}()
	}
	start := time.Now()
	for i, r := range reqs {
		due := start.Add(r.at)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		jobs <- job{i: i, due: due}
	}
	close(jobs)
	wg.Wait()
	return outs, time.Since(start)
}

// getJSON fetches a GET endpoint of hslbd into v.
func (c *client) getJSON(path string, v interface{}) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
