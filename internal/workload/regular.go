package workload

import "github.com/gmtsim/gmt/internal/gpu"

// MultiVectorAdd is BaM's linear-algebra kernel: K input vectors are
// accumulated into one output vector over K passes, so output pages are
// re-referenced once per pass at a near-constant reuse distance (the
// paper's Figure 4b) that lands in the Tier-2 range. Reuse percentage ≈
// the output's share of the footprint (Table 2: 40%).
type MultiVectorAdd struct {
	OutPages int64
	InPages  int64 // per input vector
	K        int
}

// NewMultiVectorAdd sizes the kernel against s: only the output vector
// is reused, and its pass-to-pass reuse distance (output + one input ≈
// 1.07x Tier-1+Tier-2 at the default oversubscription) slightly exceeds
// the combined capacity — the regime §3.3 describes for MultiVectorAdd,
// where recency-ordered tiering ("the usual problem of FIFO or LRU for
// cases where the working sets become exceedingly large") gets no
// cross-pass hits, while GMT-Reuse both sees a sub-capacity RRD at
// eviction time (the page has already aged through Tier-1) and retains
// its Tier-2 residents instead of churning them.
func NewMultiVectorAdd(s Scale) *MultiVectorAdd {
	w := int64(s.WorkingSetPages())
	return &MultiVectorAdd{OutPages: w * 3 / 10, InPages: w * 7 / 30, K: 3}
}

// Name implements Workload.
func (m *MultiVectorAdd) Name() string { return "MultiVectorAdd" }

// Pages implements Workload.
func (m *MultiVectorAdd) Pages() int64 { return m.OutPages + int64(m.K)*m.InPages }

// Trace implements Workload. Layout: [out][in_0][in_1]...[in_K-1]. Each
// pass scans the input monotonically (scaled to the output index), so
// inputs are read exactly once.
func (m *MultiVectorAdd) Trace() []gpu.Access { return exactTrace(m.generate) }

func (m *MultiVectorAdd) generate(b *traceBuilder) {
	for k := 0; k < m.K; k++ {
		inBase := m.OutPages + int64(k)*m.InPages
		lastIn := int64(-1)
		for i := int64(0); i < m.OutPages; i++ {
			// Consecutive iterations that land on the same input page
			// coalesce into one access.
			if in := i * m.InPages / m.OutPages; in != lastIn {
				lastIn = in
				b.read(inBase + in)
			}
			b.write(i) // out[i] += in_k[i]
		}
	}
}

// Pathfinder is Rodinia's dynamic-programming kernel: each row of the
// cost matrix is computed from the previous row while streaming the wall
// data. Result pages are re-read one row later (reuse distance ≈ one
// row, well inside Tier-1), and the wall is read once, giving low reuse
// with a strong Tier-1 bias (Table 2: ≈19%, §3.3).
type Pathfinder struct {
	Rows           int64
	WallRowPages   int64
	ResultRowPages int64
}

// NewPathfinder sizes the grid against s with an 8:2 wall:result ratio
// per row (reuse ≈ 20%).
func NewPathfinder(s Scale) *Pathfinder {
	w := int64(s.WorkingSetPages())
	return &Pathfinder{Rows: w / 10, WallRowPages: 8, ResultRowPages: 2}
}

// Name implements Workload.
func (p *Pathfinder) Name() string { return "Pathfinder" }

// Pages implements Workload.
func (p *Pathfinder) Pages() int64 {
	return p.Rows * (p.WallRowPages + p.ResultRowPages)
}

// Trace implements Workload. Layout: [wall rows][result rows].
func (p *Pathfinder) Trace() []gpu.Access { return exactTrace(p.generate) }

func (p *Pathfinder) generate(b *traceBuilder) {
	resultBase := p.Rows * p.WallRowPages
	for r := int64(0); r < p.Rows; r++ {
		for c := int64(0); c < p.WallRowPages; c++ {
			b.read(r*p.WallRowPages + c)
		}
		for c := int64(0); c < p.ResultRowPages; c++ {
			if r > 0 {
				b.read(resultBase + (r-1)*p.ResultRowPages + c)
			}
			b.write(resultBase + r*p.ResultRowPages + c)
		}
	}
}

// LavaMD is Rodinia's particle simulation: each box streams its bulk
// particle data once and re-reads a small boundary page of the previous
// box, giving the suite's lowest reuse (Table 2: ≈1.2%) at distances far
// inside Tier-1 — a workload where the host tier cannot help.
type LavaMD struct {
	Boxes        int64
	BulkPages    int64 // per box, read once
	boundaryHops int64
}

// NewLavaMD sizes boxes so one reusable page accompanies 84 streamed
// pages (reuse ≈ 1/85 ≈ 1.18%).
func NewLavaMD(s Scale) *LavaMD {
	const bulk = 84
	w := int64(s.WorkingSetPages())
	return &LavaMD{Boxes: w / (bulk + 1), BulkPages: bulk, boundaryHops: 1}
}

// Name implements Workload.
func (l *LavaMD) Name() string { return "LavaMD" }

// Pages implements Workload.
func (l *LavaMD) Pages() int64 { return l.Boxes * (l.BulkPages + 1) }

// Trace implements Workload. Per box: bulk pages stream, then the
// previous box's boundary page is re-read (neighbor access).
func (l *LavaMD) Trace() []gpu.Access { return exactTrace(l.generate) }

func (l *LavaMD) generate(b *traceBuilder) {
	stride := l.BulkPages + 1
	for box := int64(0); box < l.Boxes; box++ {
		base := box * stride
		for i := int64(0); i <= l.BulkPages; i++ {
			b.read(base + i)
		}
		if box > 0 {
			// Neighbor force contribution: previous box's boundary page.
			b.read((box - 1) * stride)
		}
	}
}

// Srad is Rodinia's image diffusion kernel processed in tiles: several
// stencil iterations per tile, each page touched as itself and as its
// neighbors' north/south within an iteration, and again one full tile
// later across iterations. The cross-iteration distance (≈0.75 of
// Tier-1+Tier-2) is what fills the host tier (Table 2: reuse ≈83%,
// strong Tier-2 bias; the paper's biggest GMT-Reuse wins alongside
// Backprop).
type Srad struct {
	TilePages int64
	AuxPages  int64 // read-once coefficients
	OncePages int64 // read-once input stream filling the working set
	Iters     int
	RowPages  int64
	// Barriers emits a kernel-wide barrier between iterations (the
	// kernel-launch boundaries of the real application).
	Barriers bool
}

// NewSrad sizes the iterated image at 1.05x the combined Tier-1+Tier-2
// capacity: the cross-iteration reuse distance exceeds what a
// recency-ordered exclusive hierarchy can hold (TierOrder gets no
// cross-iteration hits), while the Remaining RD observed at Tier-1
// eviction — the full distance minus the page's aging through Tier-1 —
// is sub-capacity, so GMT-Reuse classifies it Medium and its no-evict
// Tier-2 retains a stable, repeatedly-hit subset. Read-once regions fill
// the footprint to the oversubscription target.
func NewSrad(s Scale) *Srad {
	c := int64(s.CombinedPages())
	tile := c * 21 / 20
	aux := tile / 5
	w := int64(s.WorkingSetPages())
	once := w - tile - aux
	if once < 0 {
		once = 0
	}
	return &Srad{TilePages: tile, AuxPages: aux, OncePages: once, Iters: 4, RowPages: 16}
}

// Name implements Workload.
func (s *Srad) Name() string { return "Srad" }

// Pages implements Workload.
func (s *Srad) Pages() int64 { return s.TilePages + s.AuxPages + s.OncePages }

// Trace implements Workload. Layout: [once][aux][grid].
func (s *Srad) Trace() []gpu.Access { return exactTrace(s.generate) }

func (s *Srad) generate(b *traceBuilder) {
	for p := int64(0); p < s.OncePages; p++ {
		b.read(p)
	}
	auxBase := s.OncePages
	for a := int64(0); a < s.AuxPages; a++ {
		b.read(auxBase + a)
	}
	base := s.OncePages + s.AuxPages
	for it := 0; it < s.Iters; it++ {
		if s.Barriers && it > 0 {
			b.barrier()
		}
		for p := int64(0); p < s.TilePages; p++ {
			if p >= s.RowPages {
				b.read(base + p - s.RowPages) // north
			}
			if p+s.RowPages < s.TilePages {
				b.read(base + p + s.RowPages) // south
			}
			b.write(base + p) // center
		}
	}
}

// Backprop is Rodinia's neural-network trainer: forward pass through the
// weight layers, then backward propagation in reverse, repeated per
// epoch. A middle-heavy layer structure puts both reuse intervals of the
// bulk of the weights (suffix on the forward->backward turn, prefix on
// backward->forward) in the Tier-2 range, and many epochs give the
// suite's largest total I/O (Table 2: 6.8 TB, reuse ≈94%).
type Backprop struct {
	LayerPages []int64
	OncePages  int64 // input data touched only in the first epoch
	Epochs     int
	// Barriers emits a kernel-wide barrier at the forward/backward
	// turn and between epochs.
	Barriers bool
}

// NewBackprop sizes three layers at 15/70/15% of the weights plus a 6%
// read-once region.
func NewBackprop(s Scale) *Backprop {
	w := int64(s.WorkingSetPages())
	once := w * 6 / 100
	weights := w - once
	return &Backprop{
		LayerPages: []int64{weights * 15 / 100, weights * 70 / 100, weights * 15 / 100},
		OncePages:  once,
		Epochs:     12,
	}
}

// Name implements Workload.
func (bp *Backprop) Name() string { return "Backprop" }

// Pages implements Workload.
func (bp *Backprop) Pages() int64 {
	total := bp.OncePages
	for _, l := range bp.LayerPages {
		total += l
	}
	return total
}

// Trace implements Workload. Layout: [once][layer0][layer1][layer2].
func (bp *Backprop) Trace() []gpu.Access { return exactTrace(bp.generate) }

func (bp *Backprop) generate(b *traceBuilder) {
	layerBase := make([]int64, len(bp.LayerPages))
	base := bp.OncePages
	for i, l := range bp.LayerPages {
		layerBase[i] = base
		base += l
	}
	for e := 0; e < bp.Epochs; e++ {
		if bp.Barriers && e > 0 {
			b.barrier()
		}
		if e == 0 {
			for p := int64(0); p < bp.OncePages; p++ {
				b.read(p)
			}
		}
		// Forward.
		for i := range bp.LayerPages {
			for p := int64(0); p < bp.LayerPages[i]; p++ {
				b.read(layerBase[i] + p)
			}
		}
		if bp.Barriers {
			b.barrier()
		}
		// Backward: weight update.
		for i := len(bp.LayerPages) - 1; i >= 0; i-- {
			for p := bp.LayerPages[i] - 1; p >= 0; p-- {
				b.write(layerBase[i] + p)
			}
		}
	}
}

// Hotspot is Rodinia's thermal simulation: every iteration sweeps the
// full temperature and power grids, whose footprint exceeds
// Tier-1+Tier-2, so every remaining reuse distance is in the Tier-3
// range (Figure 7: 100% Tier-3 bias). This is the workload where §2.2's
// backfill heuristic turns a "nothing should go to Tier-2" prediction
// into a 73% I/O reduction.
type Hotspot struct {
	GridPages int64 // temperature grid
	OncePages int64 // initial conditions read once
	Iters     int
	RowPages  int64
	// Barriers emits a kernel-wide barrier between iterations.
	Barriers bool
}

// NewHotspot sizes the iterated grids at 81% of the working set (reuse ≈
// 81%) with the remainder read once.
func NewHotspot(s Scale) *Hotspot {
	w := int64(s.WorkingSetPages())
	grid := w * 81 / 100
	return &Hotspot{GridPages: grid, OncePages: w - grid, Iters: 10, RowPages: 16}
}

// Name implements Workload.
func (h *Hotspot) Name() string { return "Hotspot" }

// Pages implements Workload.
func (h *Hotspot) Pages() int64 { return h.GridPages + h.OncePages }

// Trace implements Workload. Layout: [once][grid] where grid interleaves
// temperature (even offsets) and power (odd offsets) conceptually; at
// page granularity we sweep it with a north/south stencil.
func (h *Hotspot) Trace() []gpu.Access { return exactTrace(h.generate) }

func (h *Hotspot) generate(b *traceBuilder) {
	gridBase := h.OncePages
	for p := int64(0); p < h.OncePages; p++ {
		b.read(p)
	}
	for it := 0; it < h.Iters; it++ {
		if h.Barriers && it > 0 {
			b.barrier()
		}
		for p := int64(0); p < h.GridPages; p++ {
			if p >= h.RowPages {
				b.read(gridBase + p - h.RowPages)
			}
			b.write(gridBase + p)
		}
	}
}
