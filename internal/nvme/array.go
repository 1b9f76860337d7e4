package nvme

import "github.com/gmtsim/gmt/internal/sim"

// Array stripes pages across several drives, the way BaM scales its
// storage bandwidth beyond one SSD (the BaM paper demonstrates linear
// scaling across arrays of drives; GMT's testbed used one). Page p is
// homed on drive p mod N, so sequential page ranges spread evenly.
type Array struct {
	disks []*Disk
}

// NewArray builds n identical drives on eng.
func NewArray(eng *sim.Engine, cfg Config, n int) *Array {
	if n < 1 {
		panic("nvme: array needs at least one drive")
	}
	a := &Array{}
	for i := 0; i < n; i++ {
		a.disks = append(a.disks, New(eng, cfg))
	}
	return a
}

// Reset returns every member drive to its freshly constructed state
// (see Disk.Reset).
func (a *Array) Reset() {
	for _, d := range a.disks {
		d.Reset()
	}
}

// Drives reports the member count.
func (a *Array) Drives() int { return len(a.disks) }

// Disk returns member i.
func (a *Array) Disk(i int) *Disk { return a.disks[i] }

func (a *Array) pick(lba int64) *Disk {
	i := lba % int64(len(a.disks))
	if i < 0 {
		i = -i
	}
	return a.disks[i]
}

// ReadCall issues a striped read for the page at lba.
func (a *Array) ReadCall(lba, n int64, call sim.EventFunc, ctx any, arg int64) {
	a.pick(lba).ReadCall(lba, n, call, ctx, arg)
}

// WriteCall issues a striped write for the page at lba.
func (a *Array) WriteCall(lba, n int64, call sim.EventFunc, ctx any, arg int64) {
	a.pick(lba).WriteCall(lba, n, call, ctx, arg)
}

// Stats aggregates all members.
func (a *Array) Stats() Stats {
	var s Stats
	var latency sim.Time
	for _, d := range a.disks {
		ds := d.Stats()
		s.Reads += ds.Reads
		s.Writes += ds.Writes
		s.ReadBytes += ds.ReadBytes
		s.WriteBytes += ds.WriteBytes
		s.Completions += ds.Completions
		latency += ds.MeanLatency * sim.Time(ds.Completions)
	}
	if s.Completions > 0 {
		s.MeanLatency = latency / sim.Time(s.Completions)
	}
	return s
}
