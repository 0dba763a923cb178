package main

import (
	"testing"
	"time"
)

func TestOpenLoopLatencyRunsFromTheDueTime(t *testing.T) {
	s := schedule{start: time.Unix(100, 0), interval: 10 * time.Millisecond}
	if got := s.due(3); !got.Equal(time.Unix(100, 0).Add(30 * time.Millisecond)) {
		t.Fatalf("due(3) = %v", got)
	}
	// On time: sent when due, 2 ms of service.
	due := s.due(1)
	on := account(due, due, due.Add(2*time.Millisecond))
	if on.latency != 2*time.Millisecond || on.lag != 0 {
		t.Errorf("on-time request: %+v", on)
	}
	// Behind a stall: sent 25 ms late, so its latency includes the wait.
	late := account(due, due.Add(25*time.Millisecond), due.Add(27*time.Millisecond))
	if late.latency != 27*time.Millisecond || late.lag != 25*time.Millisecond {
		t.Errorf("late request: %+v", late)
	}
	// A sender that fires early never reports negative lag.
	early := account(due, due.Add(-time.Millisecond), due.Add(time.Millisecond))
	if early.lag != 0 || early.latency != time.Millisecond {
		t.Errorf("early request: %+v", early)
	}
}
