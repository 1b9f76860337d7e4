package sim

import (
	"fmt"
	"math"
	"math/bits"

	"github.com/gmtsim/gmt/internal/invariant"
)

// Server is a capacity-limited resource with a FIFO wait queue: at most
// Capacity holders at a time. It models things like NVMe controller
// command slots, host fault-handler threads, and DMA engines.
type Server struct {
	eng      *Engine
	capacity int
	busy     int
	// waiters is a head-cursor FIFO: Release pops at head rather than
	// reslicing, so the backing array is reused instead of reallocated
	// on every grant cycle. Entries hold the typed-call triple directly.
	waiters []waiter
	head    int

	// Stats.
	grants  int64
	maxWait int
}

// waiter is one queued acquisition.
type waiter struct {
	call EventFunc
	ctx  any
	arg  int64
}

// NewServer returns a server granting at most capacity concurrent holds.
func NewServer(eng *Engine, capacity int) *Server {
	if capacity < 1 {
		panic("sim: server capacity must be >= 1")
	}
	return &Server{eng: eng, capacity: capacity}
}

// AcquireCall requests a hold: call(ctx, arg) runs as soon as a slot is
// available — synchronously if one is free now, otherwise when a holder
// releases. Passing a pre-existing function with a pointer context
// performs no allocation, mirroring Engine.AtCall.
func (s *Server) AcquireCall(call EventFunc, ctx any, arg int64) {
	if s.busy < s.capacity {
		s.busy++
		s.grants++
		invariant.Assert(s.busy <= s.capacity,
			"sim: server holds %d grants above capacity %d", s.busy, s.capacity)
		call(ctx, arg)
		return
	}
	s.waiters = append(s.waiters, waiter{call, ctx, arg})
	if n := len(s.waiters) - s.head; n > s.maxWait {
		s.maxWait = n
	}
}

// Release returns a hold. The oldest waiter, if any, is granted
// immediately (at the current virtual time).
func (s *Server) Release() {
	if s.busy <= 0 {
		panic("sim: Release without matching Acquire")
	}
	if s.head < len(s.waiters) {
		w := s.waiters[s.head]
		s.waiters[s.head] = waiter{}
		s.head++
		switch {
		case s.head == len(s.waiters):
			s.waiters = s.waiters[:0]
			s.head = 0
		case s.head >= 64 && s.head*2 >= len(s.waiters):
			// Slide the live tail to the front so a never-draining queue
			// reuses its backing array instead of growing without bound.
			n := copy(s.waiters, s.waiters[s.head:])
			vacated := s.waiters[n:]
			for i := range vacated {
				vacated[i] = waiter{}
			}
			s.waiters = s.waiters[:n]
			s.head = 0
		}
		s.grants++
		w.call(w.ctx, w.arg)
		return
	}
	s.busy--
}

// Reset returns an idle server to its freshly constructed state,
// retaining the waiter queue's backing array. It panics if holds are
// still out or waiters are queued: resets are only defined at
// quiescence (mirroring Engine.Reset).
func (s *Server) Reset() {
	if s.busy != 0 || s.Queued() != 0 {
		panic(fmt.Sprintf("sim: Reset of a server with %d holds and %d waiters", s.busy, s.Queued()))
	}
	for i := range s.waiters {
		s.waiters[i] = waiter{}
	}
	s.waiters = s.waiters[:0]
	s.head = 0
	s.grants = 0
	s.maxWait = 0
}

// InUse reports the number of current holders.
func (s *Server) InUse() int { return s.busy }

// Queued reports the number of waiters.
func (s *Server) Queued() int { return len(s.waiters) - s.head }

// Grants reports the total number of grants made.
func (s *Server) Grants() int64 { return s.grants }

// MaxQueue reports the high-water mark of the wait queue.
func (s *Server) MaxQueue() int { return s.maxWait }

// Pipe is a serialized bandwidth resource: transfers occupy the pipe
// back-to-back at a fixed byte rate, and each transfer additionally
// experiences a fixed propagation latency that is pipelined (it delays
// completion but does not occupy the pipe). It models a PCIe link
// direction, an SSD's internal media bandwidth, or a DMA engine.
type Pipe struct {
	eng       *Engine
	bytesPerS int64 // bandwidth in bytes per second
	latency   Time  // pipelined per-transfer latency
	freeAt    Time  // virtual time the pipe next becomes free

	// Occupancy memo: page-granular traffic repeats the same transfer
	// size, so cache the last 128-bit division result.
	memoN   int64
	memoOcc Time

	// Stats.
	bytes     int64
	transfers int64
	busy      Time
}

// NewPipe returns a pipe with the given bandwidth (bytes/second) and
// pipelined per-transfer latency.
func NewPipe(eng *Engine, bytesPerSecond int64, latency Time) *Pipe {
	if bytesPerSecond <= 0 {
		panic("sim: pipe bandwidth must be positive")
	}
	return &Pipe{eng: eng, bytesPerS: bytesPerSecond, latency: latency}
}

// mulDiv computes n*mul/div in 128-bit intermediate precision, so
// transfer-time arithmetic cannot overflow int64 for any representable
// byte count (n*Second overflows at ≈9.2 GB otherwise, silently
// collapsing large transfers to 1 ns of occupancy). It panics if the
// final quotient itself exceeds int64 — a virtual time beyond ~292
// years always indicates a modeling bug, never a real transfer.
func mulDiv(n, mul, div int64) int64 {
	hi, lo := bits.Mul64(uint64(n), uint64(mul))
	if hi >= uint64(div) {
		panic(fmt.Sprintf("sim: %d*%d/%d overflows int64 virtual time", n, mul, div))
	}
	q, _ := bits.Div64(hi, lo, uint64(div))
	if q > math.MaxInt64 {
		panic(fmt.Sprintf("sim: %d*%d/%d overflows int64 virtual time", n, mul, div))
	}
	return int64(q)
}

// TransferTime reports the pipe occupancy for a transfer of n bytes,
// excluding latency and queueing.
func (p *Pipe) TransferTime(n int64) Time {
	if n <= 0 {
		return 0
	}
	if n == p.memoN {
		return p.memoOcc
	}
	t := mulDiv(n, Second, p.bytesPerS)
	if t < 1 {
		t = 1
	}
	p.memoN, p.memoOcc = n, t
	return t
}

// TransferCall queues n bytes through the pipe; call(ctx, arg) runs
// when the last byte (plus propagation latency) has arrived. The
// arrival is always an event, even when call is CallFunc with a nil
// context, so a fire-and-forget transfer still advances the clock.
func (p *Pipe) TransferCall(n int64, call EventFunc, ctx any, arg int64) {
	p.transfer(n, p.TransferTime(n), call, ctx, arg)
}

// TransferLimitedCall is TransferCall for a requester that cannot
// saturate the pipe: the transfer occupies the pipe at the slower of the
// pipe rate and maxBps. It models, e.g., a zero-copy transfer driven by
// too few GPU threads to fill the PCIe link (paper Figure 6).
func (p *Pipe) TransferLimitedCall(n, maxBps int64, call EventFunc, ctx any, arg int64) {
	p.transfer(n, p.limitedTime(n, maxBps), call, ctx, arg)
}

// limitedTime is the occupancy for a rate-limited transfer.
func (p *Pipe) limitedTime(n, maxBps int64) Time {
	occ := p.TransferTime(n)
	if maxBps > 0 && maxBps < p.bytesPerS {
		occ = mulDiv(n, Second, maxBps)
		if occ < 1 {
			occ = 1
		}
	}
	return occ
}

func (p *Pipe) transfer(n int64, occ Time, call EventFunc, ctx any, arg int64) {
	if occ < 0 {
		panic(fmt.Sprintf("sim: negative pipe occupancy %d ns for %d bytes", occ, n))
	}
	invariant.Assert(occ >= p.TransferTime(n),
		"sim: pipe granted %d bytes in %d ns, faster than capacity %d B/s allows", n, occ, p.bytesPerS)
	start := p.freeAt
	if now := p.eng.Now(); start < now {
		start = now
	}
	invariant.Assert(start+occ >= p.freeAt,
		"sim: pipe commitment moved backwards: %d -> %d", p.freeAt, start+occ)
	p.freeAt = start + occ
	p.bytes += n
	p.transfers++
	p.busy += occ
	p.eng.AtCall(p.freeAt+p.latency, call, ctx, arg)
}

// Reset returns the pipe to its freshly constructed state: no pending
// commitment, cleared occupancy memo, zeroed counters. The caller must
// have drained the engine first (an in-flight transfer's completion
// event would otherwise fire against the reset pipe's accounting).
func (p *Pipe) Reset() {
	p.freeAt = 0
	p.memoN, p.memoOcc = 0, 0
	p.bytes, p.transfers, p.busy = 0, 0, 0
}

// Backlog reports how far in the future the pipe is already committed.
func (p *Pipe) Backlog() Time {
	b := p.freeAt - p.eng.Now()
	if b < 0 {
		return 0
	}
	return b
}

// Bytes reports the total bytes transferred so far.
func (p *Pipe) Bytes() int64 { return p.bytes }

// Transfers reports the number of transfers so far.
func (p *Pipe) Transfers() int64 { return p.transfers }

// BusyTime reports the cumulative time the pipe was occupied.
func (p *Pipe) BusyTime() Time { return p.busy }
