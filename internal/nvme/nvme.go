// Package nvme models an NVMe SSD and its queue-pair protocol, the
// storage substrate that both BaM and GMT drive directly from the GPU.
//
// The model reproduces the properties the paper relies on:
//
//   - Submission/completion queue pairs with bounded depth: a submitter
//     (GPU warp in BaM/GMT, host thread in HMM's libnvm path) must own a
//     submission-queue entry before issuing a command, so at most
//     QueueDepth commands are in flight per queue pair.
//   - A controller with limited internal parallelism (flash channels),
//     a fixed media access latency, and a saturable media byte rate.
//   - Data transfer over the drive's PCIe Gen3 x4 link.
//
// A 64 KiB read on an idle drive completes in ≈130 µs with the default
// parameters, and sustained throughput saturates at ≈3.2 GB/s — the
// numbers the paper reports for its Samsung 970 EVO Plus (§3.4).
package nvme

import (
	"fmt"

	"github.com/gmtsim/gmt/internal/invariant"
	"github.com/gmtsim/gmt/internal/pcie"
	"github.com/gmtsim/gmt/internal/sim"
)

// Opcode identifies an NVMe I/O command type.
type Opcode uint8

// Supported command opcodes.
const (
	OpRead Opcode = iota
	OpWrite
)

func (o Opcode) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return fmt.Sprintf("opcode(%d)", uint8(o))
	}
}

// Command is an NVMe I/O command as built by a GPU thread (BaM/GMT) or a
// host thread (libnvm path).
type Command struct {
	Op    Opcode
	LBA   int64 // logical block address, in Config.BlockSize units
	Bytes int64
}

// Config describes the simulated drive.
type Config struct {
	// Queues is the number of I/O queue pairs. BaM-style systems
	// allocate many queues in GPU memory so thousands of threads can
	// submit without contending on one ring; submissions round-robin
	// across them. Zero means one queue.
	Queues int
	// QueueDepth bounds in-flight commands per queue pair.
	QueueDepth int
	// Channels is the controller's internal parallelism.
	Channels int
	// ReadLatency / WriteLatency are fixed media access latencies.
	ReadLatency  sim.Time
	WriteLatency sim.Time
	// MediaReadBps / MediaWriteBps are the media byte rates.
	MediaReadBps  int64
	MediaWriteBps int64
	// CommandOverhead is the submission cost: doorbell write + command
	// fetch across PCIe, per command.
	CommandOverhead sim.Time
	// Lanes is the drive's PCIe link width (Gen3).
	Lanes int
	// BlockSize is the LBA size in bytes.
	BlockSize int64
}

// DefaultConfig models a Samsung 970 EVO Plus on PCIe Gen3 x4.
func DefaultConfig() Config {
	return Config{
		Queues:          8,
		QueueDepth:      128,
		Channels:        8,
		ReadLatency:     85 * sim.Microsecond,
		WriteLatency:    30 * sim.Microsecond,
		MediaReadBps:    3_400_000_000,
		MediaWriteBps:   3_200_000_000,
		CommandOverhead: 2 * sim.Microsecond,
		Lanes:           4,
		BlockSize:       512,
	}
}

// Disk is a simulated NVMe SSD with one I/O queue pair.
//
// The paper's systems allocate the queue pair in GPU memory and have GPU
// threads ring doorbells directly; the host never mediates. In the model
// this shows up as SubmitCall being callable from any simulated agent
// with no extra cost beyond CommandOverhead.
type Disk struct {
	cfg    Config
	eng    *sim.Engine
	queues []*sim.Server // submission queue entries, one server per pair
	next   int           // round-robin cursor
	chans  *sim.Server   // controller flash channels
	read   *sim.Pipe     // media read bandwidth
	write  *sim.Pipe     // media write bandwidth
	link   *pcie.Link    // drive PCIe link

	reads, writes         int64
	readBytes, writeBytes int64
	latencySum            sim.Time
	completions           int64

	pool []*request // recycled command records
}

// request carries one command through the service pipeline: queue slot →
// doorbell overhead → flash channel → media latency → media bandwidth →
// drive link → completion. Requests are pooled on the Disk and every
// stage is a top-level EventFunc with the request as context, so
// steady-state command traffic performs no allocation.
type request struct {
	d         *Disk
	q         *sim.Server
	cmd       Command
	submitted sim.Time
	call      sim.EventFunc // completion; nil when nobody waits
	ctx       any
	arg       int64
}

// Stages of the command pipeline. All scheduling rides the typed
// AcquireCall/AfterCall/TransferCall paths.

// requestEnter runs when the submission-queue slot is granted.
//
//gmt:hotpath
func requestEnter(ctx any, _ int64) {
	r := ctx.(*request)
	d := r.d
	invariant.Assert(r.q.InUse() <= d.cfg.QueueDepth,
		"nvme: %d commands in flight on one queue pair, above configured QD %d",
		r.q.InUse(), d.cfg.QueueDepth)
	r.submitted = d.eng.Now()
	// Doorbell + command fetch.
	d.eng.AfterCall(d.cfg.CommandOverhead, requestFetched, r, 0)
}

// requestFetched runs when the controller has fetched the command.
//
//gmt:hotpath
func requestFetched(ctx any, _ int64) {
	r := ctx.(*request)
	r.d.chans.AcquireCall(requestService, r, 0)
}

// requestService runs when a flash channel is granted.
//
//gmt:hotpath
func requestService(ctx any, _ int64) {
	r := ctx.(*request)
	d := r.d
	invariant.Assert(d.chans.InUse() <= d.cfg.Channels,
		"nvme: %d flash channels busy, above configured %d", d.chans.InUse(), d.cfg.Channels)
	switch r.cmd.Op {
	case OpRead:
		d.reads++
		d.readBytes += r.cmd.Bytes
		d.eng.AfterCall(d.cfg.ReadLatency, requestReadMedia, r, 0)
	case OpWrite:
		d.writes++
		d.writeBytes += r.cmd.Bytes
		// Data first crosses the link into the drive buffer, then is
		// programmed to media; completion is posted after buffering +
		// program start (write-back cache typical of consumer drives
		// would post earlier; we post after program for conservatism).
		d.link.Up.TransferCall(r.cmd.Bytes, requestBuffered, r, 0)
	default:
		panic("nvme: unknown opcode")
	}
}

// requestReadMedia runs after the media read latency: stream the data
// off the media at its byte rate.
//
//gmt:hotpath
func requestReadMedia(ctx any, _ int64) {
	r := ctx.(*request)
	r.d.read.TransferCall(r.cmd.Bytes, requestLinkDown, r, 0)
}

// requestLinkDown streams read data across the drive link toward the
// requester.
//
//gmt:hotpath
func requestLinkDown(ctx any, _ int64) {
	r := ctx.(*request)
	r.d.link.Down.TransferCall(r.cmd.Bytes, requestFinish, r, 0)
}

// requestBuffered runs when write data has landed in the drive buffer:
// wait out the program latency.
//
//gmt:hotpath
func requestBuffered(ctx any, _ int64) {
	r := ctx.(*request)
	r.d.eng.AfterCall(r.d.cfg.WriteLatency, requestWriteMedia, r, 0)
}

// requestWriteMedia programs write data to media at its byte rate.
//
//gmt:hotpath
func requestWriteMedia(ctx any, _ int64) {
	r := ctx.(*request)
	r.d.write.TransferCall(r.cmd.Bytes, requestFinish, r, 0)
}

// requestFinish posts the completion entry and recycles the request.
//
//gmt:hotpath
func requestFinish(ctx any, _ int64) {
	r := ctx.(*request)
	d := r.d
	d.chans.Release()
	r.q.Release()
	d.link.CheckInvariants()
	d.completions++
	d.latencySum += d.eng.Now() - r.submitted
	call, cctx, carg := r.call, r.ctx, r.arg
	// Recycle before invoking the callback: it may submit again and is
	// free to reuse this record.
	r.call, r.ctx, r.q = nil, nil, nil
	d.pool = append(d.pool, r)
	if call != nil {
		call(cctx, carg)
	}
}

// requestChunkSize is the pool-miss growth quantum: a miss carves a
// whole chunk of requests so the pool grows in O(peak/chunk) allocations
// rather than one heap object per outstanding command.
const requestChunkSize = 32

// newRequest pops a pooled request or carves a fresh chunk; pool misses
// are amortized away by reuse.
//
//gmt:coldpath
func (d *Disk) newRequest() *request {
	if n := len(d.pool); n > 0 {
		r := d.pool[n-1]
		d.pool = d.pool[:n-1]
		return r
	}
	chunk := make([]request, requestChunkSize)
	for i := range chunk {
		chunk[i].d = d
		d.pool = append(d.pool, &chunk[i])
	}
	r := d.pool[len(d.pool)-1]
	d.pool = d.pool[:len(d.pool)-1]
	return r
}

// New returns a disk attached to eng.
func New(eng *sim.Engine, cfg Config) *Disk {
	if cfg.QueueDepth < 1 || cfg.Channels < 1 {
		panic("nvme: QueueDepth and Channels must be >= 1")
	}
	if cfg.Queues < 1 {
		cfg.Queues = 1
	}
	d := &Disk{
		cfg:   cfg,
		eng:   eng,
		chans: sim.NewServer(eng, cfg.Channels),
		read:  sim.NewPipe(eng, cfg.MediaReadBps, 0),
		write: sim.NewPipe(eng, cfg.MediaWriteBps, 0),
		link:  pcie.NewLink(eng, cfg.Lanes),
	}
	for q := 0; q < cfg.Queues; q++ {
		d.queues = append(d.queues, sim.NewServer(eng, cfg.QueueDepth))
	}
	return d
}

// Config reports the drive configuration.
func (d *Disk) Config() Config { return d.cfg }

// Reset returns an idle drive to its freshly constructed state,
// retaining the request pool (requests hold only the disk pointer, which
// is stable) so a recycled drive issues commands with zero allocations
// from the first one. It panics if commands are in flight.
func (d *Disk) Reset() {
	if n := d.InFlight(); n != 0 {
		panic(fmt.Sprintf("nvme: Reset with %d commands in flight", n))
	}
	for _, q := range d.queues {
		q.Reset()
	}
	d.next = 0
	d.chans.Reset()
	d.read.Reset()
	d.write.Reset()
	d.link.Reset()
	d.reads, d.writes = 0, 0
	d.readBytes, d.writeBytes = 0, 0
	d.latencySum = 0
	d.completions = 0
}

// SubmitCall issues cmd on the next queue pair (round-robin).
// call(ctx, arg) runs when the completion entry is posted, with no
// per-command closure; a nil call drops the completion. Submission
// blocks (in virtual time) while the chosen queue is full, modeling a
// GPU warp polling for a free submission-queue entry.
func (d *Disk) SubmitCall(cmd Command, call sim.EventFunc, ctx any, arg int64) {
	if cmd.Bytes <= 0 {
		panic("nvme: command with non-positive byte count")
	}
	r := d.newRequest()
	r.cmd = cmd
	r.call, r.ctx, r.arg = call, ctx, arg
	r.q = d.queues[d.next]
	d.next = (d.next + 1) % len(d.queues)
	r.q.AcquireCall(requestEnter, r, 0)
}

// ReadCall issues an OpRead of n bytes at lba (see SubmitCall).
func (d *Disk) ReadCall(lba, n int64, call sim.EventFunc, ctx any, arg int64) {
	d.SubmitCall(Command{Op: OpRead, LBA: lba, Bytes: n}, call, ctx, arg)
}

// WriteCall issues an OpWrite of n bytes at lba (see SubmitCall).
func (d *Disk) WriteCall(lba, n int64, call sim.EventFunc, ctx any, arg int64) {
	d.SubmitCall(Command{Op: OpWrite, LBA: lba, Bytes: n}, call, ctx, arg)
}

// Stats is a snapshot of drive counters.
type Stats struct {
	Reads, Writes         int64
	ReadBytes, WriteBytes int64
	Completions           int64
	MeanLatency           sim.Time
}

// Stats reports cumulative drive activity.
func (d *Disk) Stats() Stats {
	s := Stats{
		Reads:       d.reads,
		Writes:      d.writes,
		ReadBytes:   d.readBytes,
		WriteBytes:  d.writeBytes,
		Completions: d.completions,
	}
	if d.completions > 0 {
		s.MeanLatency = d.latencySum / d.completions
	}
	return s
}

// InFlight reports commands currently being serviced or queued.
func (d *Disk) InFlight() int {
	n := 0
	for _, q := range d.queues {
		n += q.InUse() + q.Queued()
	}
	return n
}

// QueuePairs reports the number of I/O queue pairs.
func (d *Disk) QueuePairs() int { return len(d.queues) }
