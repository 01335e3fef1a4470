package core

import (
	"context"
	"runtime"
	"sync/atomic"

	"webssari/internal/telemetry"
)

// Pool is a bounded worker-slot semaphore shared between the file-level
// fan-out of a project run and the assertion-level fan-out inside each
// file's Solve. Its discipline is what makes the sharing deadlock-free:
//
//   - file-level workers use the blocking Acquire, and
//   - assertion-level workers inside a Solve use only TryAcquire, with the
//     calling goroutine always working inline on its own slot,
//
// so a goroutine holding a slot never blocks waiting for another slot and
// no circular wait can form.
//
// The pool self-observes: acquire counts, the in-use and waiting
// high-water marks, and TryAcquire outcomes are tracked with atomics and
// read back through Snapshot (the report's pool profile) or mirrored
// live into a metrics registry via Instrument.
type Pool struct {
	sem chan struct{}

	acquires   atomic.Int64
	tryHits    atomic.Int64
	tryMisses  atomic.Int64
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

// acquired records one slot take (by either acquire path).
func (p *Pool) acquired() {
	in := p.inUse.Add(1)
	for {
		max := p.maxInUse.Load()
		if in <= max || p.maxInUse.CompareAndSwap(max, in) {
			break
		}
	}
	p.acquires.Add(1)
	p.cAcquires.Inc()
	p.gInUse.Set(in)
	p.gInUseMax.SetMax(in)
}

// Acquire blocks until a slot is free or ctx is done, returning ctx's
// error in the latter case.
func (p *Pool) Acquire(ctx context.Context) error {
	w := p.waiting.Add(1)
	for {
		max := p.maxWaiting.Load()
		if w <= max || p.maxWaiting.CompareAndSwap(max, w) {
			break
		}
	}
	p.gWaiting.Set(w)
	defer func() {
		p.gWaiting.Set(p.waiting.Add(-1))
	}()
	select {
	case p.sem <- struct{}{}:
		p.acquired()
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryAcquire takes a slot only if one is free right now.
func (p *Pool) TryAcquire() bool {
	select {
	case p.sem <- struct{}{}:
		p.tryHits.Add(1)
		p.acquired()
		return true
	default:
		p.tryMisses.Add(1)
		return false
	}
}

// Release returns a slot taken by Acquire or TryAcquire. The slot leaves
// the in-use count before it is freed, so the next acquire can never
// count it twice and MaxInUse stays within Cap.
func (p *Pool) Release() {
	p.gInUse.Set(p.inUse.Add(-1))
	<-p.sem
}

// Cap returns the pool's slot count.
func (p *Pool) Cap() int { return cap(p.sem) }

// Snapshot returns the pool's cumulative usage profile.
func (p *Pool) Snapshot() *telemetry.PoolProfile {
	return &telemetry.PoolProfile{
		Capacity:         p.Cap(),
		Acquires:         p.acquires.Load(),
		TryAcquireHits:   p.tryHits.Load(),
		TryAcquireMisses: p.tryMisses.Load(),
		MaxInUse:         p.maxInUse.Load(),
		MaxWaiting:       p.maxWaiting.Load(),
	}
}
