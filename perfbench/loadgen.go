package main

import "time"

// schedule is an open-loop arrival schedule: request i is due at
// start + i·interval whether or not earlier requests have finished, so
// a stall delays every request queued behind it.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) due(i int) time.Time { return s.start.Add(time.Duration(i) * s.interval) }

// openLoopSample is one request's accounting: latency runs from when the
// request was due (not when it was sent), and lag is how late the
// generator sent it.
type openLoopSample struct {
	latency, lag time.Duration
}

func account(due, sent, done time.Time) openLoopSample {
	lag := sent.Sub(due)
	if lag < 0 {
		lag = 0
	}
	return openLoopSample{latency: done.Sub(due), lag: lag}
}
