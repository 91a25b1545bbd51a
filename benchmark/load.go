package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// clients is the size of the closed loop: each client sends its next
// request only when the previous one has been answered, over one
// keep-alive connection. Two, because the reference host has two cores
// and the loadgen runs at GOMAXPROCS=2.
const clients = 2

// op is one request of a workload's script.
type op struct {
	class  int // index into workload.classes
	url    string
	body   []byte // nil: GET, else POST
	sketch int    // for adds: which sketch and which body, for the tally
	bodyIx int
}

// client is one closed-loop caller with its own connection.
type client struct {
	id int
	hc *http.Client

	// script position: requests, adds and reads issued so far
	n, adds, reads int

	// acks[sketch][body] counts acknowledged /add bodies since the
	// sketches were created, warm-up and set-up included: the
	// correctness checks derive the exact answers from it.
	acks [][]int

	// per class, requests sent inside the measured window only
	lat       [][]float64 // ms, acknowledged requests
	attempted []int
	failed    []int
	firstErr  error

	// the reference round trip (reference.go): where to ask, when this
	// client last did, and the round trips sent inside the window, in ms
	refURL  string
	lastRef time.Time
	refLat  []float64
	refErr  error // the first reference request that failed, warm-up included
}

func newHTTPClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   30 * time.Second,
	}
}

func newClient(id, sketches, bodies, classes int) *client {
	c := &client{id: id, hc: newHTTPClient()}
	c.acks = make([][]int, sketches)
	for i := range c.acks {
		c.acks[i] = make([]int, bodies)
	}
	c.lat = make([][]float64, classes)
	c.attempted = make([]int, classes)
	c.failed = make([]int, classes)
	return c
}

// do sends o and reports whether it was acknowledged with a 2xx and how
// long the caller waited for the complete response.
func (c *client) do(o op) (bool, time.Duration, error) {
	method, body := http.MethodGet, io.Reader(nil)
	if o.body != nil {
		method, body = http.MethodPost, bytes.NewReader(o.body)
	}
	req, err := http.NewRequest(method, o.url, body)
	if err != nil {
		return false, 0, err
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return false, time.Since(start), err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	took := time.Since(start)
	if err != nil {
		return false, took, err
	}
	if resp.StatusCode/100 != 2 {
		return false, took, fmt.Errorf("%s %s: HTTP %d", method, o.url, resp.StatusCode)
	}
	return true, took, nil
}

// run follows the script until stop returns true (checked between
// requests). A request belongs to the window when it was sent in
// [from, until), whenever it is answered: one that stalls past until or
// fails after it is still counted, and the request in flight at each end
// of the window is counted once, at the end it was sent in.
func (c *client) run(next func(*client) op, from, until time.Time, stop func(*client) bool) {
	for !stop(c) {
		if c.refURL != "" && time.Since(c.lastRef) >= refEvery {
			c.lastRef = time.Now()
			ok, took, err := c.do(op{url: c.refURL})
			if !ok && c.refErr == nil {
				c.refErr = err
			}
			if ok && !c.lastRef.Before(from) && c.lastRef.Before(until) {
				c.refLat = append(c.refLat, float64(took)/float64(time.Millisecond))
			}
		}
		o := next(c)
		sent := time.Now()
		ok, took, err := c.do(o)
		if ok && o.body != nil {
			c.acks[o.sketch][o.bodyIx]++
		}
		if err != nil && c.firstErr == nil {
			c.firstErr = err
		}
		if sent.Before(from) || !sent.Before(until) {
			continue
		}
		c.attempted[o.class]++
		if ok {
			c.lat[o.class] = append(c.lat[o.class], float64(took)/float64(time.Millisecond))
		} else {
			c.failed[o.class]++
		}
	}
}

// runClients runs every client's loop to completion.
func runClients(cs []*client, next func(*client) op, from, until time.Time, stop func(*client) bool) {
	var wg sync.WaitGroup
	for _, c := range cs {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(next, from, until, stop)
		}(c)
	}
	wg.Wait()
}

// drive runs a script outside any measured window — a pre-load, the
// recovery phase's fixed ingest — until done holds for every client, and
// returns the first request error.
func drive(cs []*client, next func(*client) op, done func(*client) bool) error {
	never := time.Now().Add(24 * time.Hour)
	runClients(cs, next, never, never, done)
	return firstErr(cs)
}

func firstErr(cs []*client) error {
	for _, c := range cs {
		if c.firstErr != nil {
			return c.firstErr
		}
	}
	return nil
}

// classStats merges the clients' window figures for one class.
type classStats struct {
	Class     string `json:"class"`
	Attempted int    `json:"attempted"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
	sorted    []float64
}

func mergeClass(cs []*client, class int, name string) classStats {
	st := classStats{Class: name}
	for _, c := range cs {
		st.Attempted += c.attempted[class]
		st.Failed += c.failed[class]
		st.sorted = append(st.sorted, c.lat[class]...)
	}
	st.Succeeded = len(st.sorted)
	sort.Float64s(st.sorted)
	return st
}

func getJSON(hc *http.Client, url string, out any) error {
	data, err := getBytes(hc, url)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, out)
}

func getBytes(hc *http.Client, url string) ([]byte, error) {
	resp, err := hc.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return data, nil
}

func post(hc *http.Client, url string, body []byte) error {
	resp, err := hc.Post(url, "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("POST %s: HTTP %d: %s", url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return nil
}
