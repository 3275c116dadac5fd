package service

import (
	"context"
	"sync/atomic"
	"time"
)

// admission is the max-in-flight gate: at most cap(slots) statements
// execute concurrently; up to queueCap more wait in a bounded queue, and
// a waiter is rejected when the queue is full, its wait exceeds the
// queue timeout, or its context ends first. Everything beyond that is
// rejected immediately — the server sheds load instead of building an
// unbounded backlog.
type admission struct {
	slots    chan struct{}
	queueCap int64
	timeout  time.Duration

	inflight atomic.Int64
	queued   atomic.Int64
	rejected atomic.Int64
	admitted atomic.Int64
}

// newAdmission builds a gate admitting maxInFlight concurrent
// statements with queueDepth waiters and the given queue timeout
// (0 = wait as long as the statement's context allows).
func newAdmission(maxInFlight, queueDepth int, timeout time.Duration) *admission {
	if maxInFlight < 1 {
		maxInFlight = 1
	}
	if queueDepth < 0 {
		queueDepth = 0
	}
	return &admission{
		slots:    make(chan struct{}, maxInFlight),
		queueCap: int64(queueDepth),
		timeout:  timeout,
	}
}

// acquire admits one statement, blocking in the bounded queue when the
// gate is full. It returns the release function on admission, or
// ErrOverloaded / ErrQueueTimeout / ctx.Err() on rejection.
func (a *admission) acquire(ctx context.Context) (func(), error) {
	select {
	case a.slots <- struct{}{}:
		a.inflight.Add(1)
		a.admitted.Add(1)
		return a.release, nil
	default:
	}
	if a.queued.Add(1) > a.queueCap {
		a.queued.Add(-1)
		a.rejected.Add(1)
		return nil, ErrOverloaded
	}
	defer a.queued.Add(-1)

	var timeoutC <-chan time.Time
	if a.timeout > 0 {
		t := time.NewTimer(a.timeout)
		defer t.Stop()
		timeoutC = t.C
	}
	select {
	case a.slots <- struct{}{}:
		a.inflight.Add(1)
		a.admitted.Add(1)
		return a.release, nil
	case <-timeoutC:
		a.rejected.Add(1)
		return nil, ErrQueueTimeout
	case <-ctx.Done():
		a.rejected.Add(1)
		return nil, ctx.Err()
	}
}

// release returns an admitted statement's slot.
func (a *admission) release() {
	a.inflight.Add(-1)
	<-a.slots
}
