package core

import (
	"context"
	"runtime"
	"sync/atomic"

	"webssari/internal/telemetry"
)

// Pool is a bounded worker-slot semaphore: a dispatcher takes one slot
// per unit of work with the blocking Acquire — a file of a project run,
// or a daemon job. A file's Solve runs on its worker's slot and takes no
// further slots.
//
// The pool self-observes: acquire counts and the in-use and waiting
// high-water marks are tracked with atomics and read back through
// Snapshot (the report's pool profile) or mirrored live into a metrics
// registry via Instrument.
type Pool struct {
	sem chan struct{}

	acquires   atomic.Int64
	inUse      atomic.Int64
	maxInUse   atomic.Int64
	waiting    atomic.Int64
	maxWaiting atomic.Int64

	// Live registry mirrors; nil (a no-op) unless Instrument was called.
	gInUse    *telemetry.GaugeMetric
	gInUseMax *telemetry.GaugeMetric
	gWaiting  *telemetry.GaugeMetric
	cAcquires *telemetry.CounterMetric
}

// NewPool returns a pool of n slots; n <= 0 means GOMAXPROCS.
func NewPool(n int) *Pool {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return &Pool{sem: make(chan struct{}, n)}
}

// Instrument mirrors the pool's occupancy into reg's gauges so a
// long-running corpus job can be watched live on the /metrics page.
// Call before handing the pool to workers; a nil registry is a no-op.
func (p *Pool) Instrument(reg *telemetry.Registry) {
	p.gInUse = reg.Gauge(telemetry.MetricPoolInUse)
	p.gInUseMax = reg.Gauge(telemetry.MetricPoolInUseMax)
	p.gWaiting = reg.Gauge(telemetry.MetricPoolWaiting)
	p.cAcquires = reg.Counter(telemetry.MetricPoolAcquires)
}

// raiseMax lifts the high-water mark m to at least v.
func raiseMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Acquire blocks until a slot is free or ctx is done, returning ctx's
// error in the latter case.
func (p *Pool) Acquire(ctx context.Context) error {
	w := p.waiting.Add(1)
	raiseMax(&p.maxWaiting, w)
	p.gWaiting.Set(w)
	defer func() {
		p.gWaiting.Set(p.waiting.Add(-1))
	}()
	select {
	case p.sem <- struct{}{}:
	case <-ctx.Done():
		return ctx.Err()
	}
	in := p.inUse.Add(1)
	raiseMax(&p.maxInUse, in)
	p.acquires.Add(1)
	p.cAcquires.Inc()
	p.gInUse.Set(in)
	p.gInUseMax.SetMax(in)
	return nil
}

// Release returns a slot taken by Acquire. The slot leaves the in-use
// count before it is freed, so the next acquire can never count it twice
// and MaxInUse stays within Cap.
func (p *Pool) Release() {
	p.gInUse.Set(p.inUse.Add(-1))
	<-p.sem
}

// Cap returns the pool's slot count.
func (p *Pool) Cap() int { return cap(p.sem) }

// Snapshot returns the pool's cumulative usage profile.
func (p *Pool) Snapshot() *telemetry.PoolProfile {
	return &telemetry.PoolProfile{
		Capacity:   p.Cap(),
		Acquires:   p.acquires.Load(),
		MaxInUse:   p.maxInUse.Load(),
		MaxWaiting: p.maxWaiting.Load(),
	}
}
