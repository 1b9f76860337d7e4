package reuse

// fenwick is a dynamically-growing binary indexed tree over access
// positions, the "tree-based method" (paper §2.1.3, refs [13,17]) used to
// compute exact reuse distances from an access stream. It keeps only the
// tree. Capacity is a power of two, so growth copies the old nodes and
// needs no rebuild: a new node either covers only positions past the old
// capacity, none of which has been added to yet (zero), or is a
// power-of-two node covering every position from the first (the old
// total, which the old top node holds).
type fenwick struct {
	tree []int64 // 1-based; len is capacity+1, or 0 before the first Add
}

// capacity reports how many positions the tree covers.
func (f *fenwick) capacity() int {
	if len(f.tree) == 0 {
		return 0
	}
	return len(f.tree) - 1
}

func (f *fenwick) grow(n int) {
	old := f.capacity()
	if n <= old {
		return
	}
	capa := old
	if capa == 0 {
		capa = 64
	}
	for capa < n {
		capa *= 2
	}
	tree := make([]int64, capa+1)
	copy(tree, f.tree)
	if old > 0 {
		for k := 2 * old; k <= capa; k *= 2 {
			tree[k] = f.tree[old]
		}
	}
	f.tree = tree
}

// clear zeroes every node an Add below position n can have touched —
// the nodes of positions [0, n) and their ancestors above — keeping the
// capacity. On a tree that only ever held Adds below n, the result
// equals a fresh tree.
func (f *fenwick) clear(n int) {
	if c := f.capacity(); n > c {
		n = c
	}
	if n <= 0 {
		return
	}
	clear(f.tree[:n+1])
	for j := n + (n & -n); j < len(f.tree); j += j & -j {
		f.tree[j] = 0
	}
}

// Add adds delta at position i (0-based).
func (f *fenwick) Add(i int, delta int64) {
	f.grow(i + 1)
	for j := i + 1; j < len(f.tree); j += j & (-j) {
		f.tree[j] += delta
	}
}

// PrefixSum reports the sum of positions [0, i].
func (f *fenwick) PrefixSum(i int) int64 {
	if i < 0 {
		return 0
	}
	if c := f.capacity(); i >= c {
		i = c - 1
	}
	var s int64
	for j := i + 1; j > 0; j -= j & (-j) {
		s += f.tree[j]
	}
	return s
}

// RangeSum reports the sum of positions [lo, hi].
func (f *fenwick) RangeSum(lo, hi int) int64 {
	if hi < lo {
		return 0
	}
	return f.PrefixSum(hi) - f.PrefixSum(lo-1)
}
