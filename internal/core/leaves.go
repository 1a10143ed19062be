package core

import (
	"context"
	"math"
	"slices"

	"repro/internal/mat"
	"repro/internal/par"
)

// tree is the cone tree over the owned ids of a cosine index: the median
// splits that group rows whose directions lie close together, kept as a
// binary tree down to leaves of at most leafRows rows. Every node is bounded
// by a cone over its own rows: a unit centre c and the cosine and sine of a
// half-angle θ such that every member lies within θ of c. No member of a node
// can score above the node's coneBound against a query vector, so an exact
// scan searches the tree best bound first and stops at the first node its
// floor has passed (scan.search; DESIGN §13 has the lemma). 4 B per owned
// company and (d+2)·8 B plus 12 B per node, about two nodes per leaf.
type tree struct {
	rows  []uint32  // the owned ids leaf by leaf, ascending within a leaf
	nodes []node    // in preorder from the root; empty when none is built
	cones []float64 // node n's d+2 values from n·(d+2): c, cos θ, sin θ
}

// node n holds rows[lo:hi]. An inner node's children are nodes n+1 and
// right, which hold its first and second half; right is 0 for a leaf. In
// preorder a subtree is nodes n to the end of its last leaf, and its rows are
// its root's.
type node struct{ lo, hi, right uint32 }

// coneMaxDim is the widest representation the cone bound is proved for, and
// coneSlack the absolute margin that absorbs its roundings and the score's
// (DESIGN §13): at width 64 they come to under 2⁻²¹.
const (
	coneMaxDim = 64
	coneSlack  = 0x1p-20
)

// leafRows is the most rows a leaf holds. Of 16, 32 and 64, leaves of 16 and
// 32 answered a top-10 over 100k topic mixtures equally fast and 64 slower;
// 32 makes half the nodes of 16 (DESIGN §13 has the sweep).
const leafRows = 32

// groupLeaves builds the tree over the owned ids (every id when the index is
// not partitioned): unit-normalised rows are split at the median of their
// widest coordinate until a part holds at most leafRows rows, and each part
// on the way is a node. It builds none where the bound is not proved: under
// Euclidean, with a norm outside the floor test's range, or past coneMaxDim.
//
// It works on float32 copies of the unit rows, half the bytes to move; the
// cones allow for their rounding (coneMargin). The copies move with their
// positions, level by level, so that a node's rows are contiguous when its
// split and its cone read them. The nodes' sizes depend on the number of rows
// alone, and the nodes of one level split in parallel, each into its own
// range, so the tree is the same at any worker count.
func (ix *Index) groupLeaves() {
	ix.tree = tree{}
	d := ix.Reps.Cols
	m := ix.OwnedCompanies()
	if ix.Metric == Euclidean || !ix.normsInRange || d > coneMaxDim || m == 0 {
		return
	}
	id := func(p uint32) int {
		if ix.owned == nil {
			return int(p)
		}
		return int(ix.owned[p])
	}
	c := chunks(d)
	b := leafBuild{d: d, c: c, pts: make([][4]float32, m*c), apts: make([][4]float32, m*c),
		pos: make([]uint32, m), apos: make([]uint32, m),
		keys: make([]float32, m), work: make([]float32, m),
	}
	for p := range b.pos {
		b.pos[p] = uint32(p)
		rn := ix.norms[id(uint32(p))]
		if rn == 0 {
			if b.zero == nil {
				b.zero = make([]bool, m)
			}
			b.zero[p] = true
			continue
		}
		inv := 1 / rn
		u := b.pts[p*c : (p+1)*c]
		for j, v := range ix.Reps.Row(id(uint32(p))) {
			u[j/4][j%4] = float32(v * inv)
		}
	}
	nodes := layout(nil, 0, uint32(m))
	size := func(n uint32) int { return int(nodes[n].hi - nodes[n].lo) }
	axes := make([]int, len(nodes)) // the split coordinate of each inner node
	axes[0] = b.widest(b.pts)
	// level holds the nodes that hold every row between them: the children of
	// the last level's splits, and the leaves it left as they were. In the end
	// it holds the leaves.
	level := []uint32{0}
	for {
		next := make([]uint32, 0, 2*len(level))
		for _, n := range level {
			if r := nodes[n].right; r != 0 {
				next = append(next, n+1, r)
			} else {
				next = append(next, n)
			}
		}
		if len(next) == len(level) {
			break
		}
		forRows(len(level), func(i int) int { return size(level[i]) }, func(i int) {
			n := level[i]
			nd := nodes[n]
			if nd.right == 0 {
				b.keep(nd.lo, nd.hi)
				return
			}
			axes[n+1], axes[nd.right] = b.split(nd.lo, nd.hi, axes[n])
		})
		b.pos, b.apos = b.apos, b.pos
		b.pts, b.apts = b.apts, b.pts
		level = next
	}
	cones := make([]float64, len(nodes)*(d+2))
	forRows(len(nodes), func(n int) int { return size(uint32(n)) }, func(n int) {
		nd, cone := nodes[n], cones[n*(d+2):(n+1)*(d+2)]
		if b.zero != nil && slices.ContainsFunc(b.pos[nd.lo:nd.hi], func(p uint32) bool { return b.zero[p] }) {
			// A row with no direction scores 0 against any query: the node is
			// the whole sphere, c = 0 and θ = π, and its bound is 1 + coneSlack.
			cone[d] = -1
		} else {
			coneOf(cone, b.pts[int(nd.lo)*c:int(nd.hi)*c])
		}
	})
	rows := make([]uint32, m)
	forRows(len(level), func(i int) int { return size(level[i]) }, func(i int) {
		nd := nodes[level[i]]
		ps := b.pos[nd.lo:nd.hi]
		slices.Sort(ps) // ids ascend within a leaf, as admit assumes
		for x, p := range ps {
			rows[int(nd.lo)+x] = uint32(id(p))
		}
	})
	ix.tree = tree{rows: rows, nodes: nodes, cones: cones}
}

// layout appends to nodes, in preorder, the nodes over rows lo..hi-1: a node
// of more than leafRows rows has two children, over its first half and the
// rest.
func layout(nodes []node, lo, hi uint32) []node {
	n := len(nodes)
	nodes = append(nodes, node{lo, hi, 0})
	if hi-lo > leafRows {
		mid := lo + (hi-lo)/2
		nodes = layout(nodes, lo, mid)
		nodes[n].right = uint32(len(nodes))
		nodes = layout(nodes, mid, hi)
	}
	return nodes
}

// forRows runs fn(i) for every i in [0, n) on par's workers, in tasks of
// consecutive items that hold about scanChunk rows between them, rows(i)
// each: every level of the tree holds all the rows, in one node at the root
// and in thousands at the leaves.
func forRows(n int, rows func(i int) int, fn func(i int)) {
	starts := []int{0}
	for i, r := 0, 0; i < n; i++ {
		if r >= scanChunk {
			starts, r = append(starts, i), 0
		}
		r += rows(i)
	}
	starts = append(starts, n)
	_ = par.ForEach(context.Background(), len(starts)-1, func(t int) error {
		for i := starts[t]; i < starts[t+1]; i++ {
			fn(i)
		}
		return nil
	})
}

// leafBuild is the scratch of groupLeaves. pos lists the owned positions
// node by node, and pts their unit rows in the same order, d values each
// padded with zeros to c = chunks(d) chunks of four; a level moves both into
// apos and apts. zero marks the positions of rows with no direction, nil when
// there are none. keys holds the split coordinate of a node's rows, and work
// a copy of it to select from.
type leafBuild struct {
	d, c       int
	pts, apts  [][4]float32
	zero       []bool
	pos, apos  []uint32
	keys, work []float32
}

// chunks is how many chunks of four values a row of d values takes: a chunk
// moves as one value, and coneOf keeps a chunk's four sums in registers.
func chunks(d int) int { return (d + 3) / 4 }

// widest returns the coordinate along which the rows pts spread widest —
// over a strided sample of at most widestSample of them — the first on ties;
// 0 for a leaf, which does not split.
func (b *leafBuild) widest(pts [][4]float32) int {
	d, c := b.d, b.c
	n := len(pts) / c
	if n <= leafRows {
		return 0
	}
	step := max(1, n/widestSample) * c
	axis, most := 0, float32(-1)
	for j := 0; j < d; j++ {
		mn, mx := pts[j/4][j%4], pts[j/4][j%4]
		for x := step + j/4; x < len(pts); x += step {
			if v := pts[x][j%4]; v < mn {
				mn = v
			} else if v > mx {
				mx = v
			}
		}
		if mx-mn > most {
			axis, most = j, mx-mn
		}
	}
	return axis
}

const widestSample = 256

// split moves the rows lo..hi-1 into apos and apts as two halves, split at
// mid = lo + (hi-lo)/2: the rows whose coordinate axis is below its median
// first, those above it last, and rows at the median filling the first half
// up. It returns the coordinates the halves spread widest along.
func (b *leafBuild) split(lo, hi uint32, axis int) (int, int) {
	c, mid := b.c, lo+(hi-lo)/2
	keys, work := b.keys[lo:hi], b.work[lo:hi]
	for x := range keys {
		keys[x] = b.pts[(int(lo)+x)*c+axis/4][axis%4]
	}
	copy(work, keys)
	med, below := selectRank(work, int(mid-lo))
	ties := int(mid-lo) - below
	l, r := lo, mid
	for x, v := range keys {
		left := uint32(0)
		if v < med {
			left = 1
		}
		if v == med && ties > 0 {
			left = 1
			ties--
		}
		to := r
		if left == 1 {
			to = l
		}
		from := int(lo) + x
		b.apos[to] = b.pos[from]
		for k := 0; k < c; k++ {
			b.apts[int(to)*c+k] = b.pts[from*c+k]
		}
		l += left
		r += 1 - left
	}
	return b.widest(b.apts[int(lo)*c : int(mid)*c]), b.widest(b.apts[int(mid)*c : int(hi)*c])
}

// keep moves the rows lo..hi-1 of a leaf into apos and apts as they are.
func (b *leafBuild) keep(lo, hi uint32) {
	copy(b.apos[lo:hi], b.pos[lo:hi])
	copy(b.apts[int(lo)*b.c:int(hi)*b.c], b.pts[int(lo)*b.c:int(hi)*b.c])
}

// selectRank returns the value of rank r among a's and how many are below
// it, and reorders a: a quickselect whose partitions (below a pivot, then up
// to another) are branch-free Lomuto passes. Past a few thousand values the
// two pivots bracket rank r in a strided sample, so that most values leave
// the range in the first two passes; otherwise both are a median of three.
func selectRank(a []float32, r int) (float32, int) {
	lo, hi := 0, len(a)
	bracket := true
	for {
		n := hi - lo
		var pl, ph float32
		if bracket && n > 16*selectSample {
			var s [selectSample]float32
			for i := range s {
				s[i] = a[lo+i*n/len(s)]
			}
			slices.Sort(s[:])
			k := (r - lo) * len(s) / n
			pl, ph = s[max(k-16, 0)], s[min(k+16, len(s)-1)]
		} else {
			x, y, z := a[lo], a[lo+n/2], a[hi-1]
			pl = max(min(x, y), min(max(x, y), z))
			ph = pl
		}
		lt := lo + lomuto(a[lo:hi], func(v float32) bool { return v < pl })
		if r < lt {
			hi = lt
			continue
		}
		le := lt + lomuto(a[lt:hi], func(v float32) bool { return v <= ph })
		switch {
		case r >= le:
			lo = le
		case pl == ph:
			return pl, lt
		default:
			// The band between the pivots; bracket it again only if it shrank.
			bracket = le-lt < n
			lo, hi = lt, le
		}
	}
}

const selectSample = 256

// lomuto moves the values of a for which in holds to its front, and returns
// how many there are.
func lomuto(a []float32, in func(v float32) bool) int {
	st := 0
	for x, v := range a {
		a[x] = a[st]
		a[st] = v
		inc := 0
		if in(v) {
			inc = 1
		}
		st += inc
	}
	return st
}

// coneMargin is subtracted from the least c·w of a node's rows, which can be
// off from the cosine of the angle between c and a row by the float32
// rounding of the copy w (2⁻²⁴) and some float64 roundings (under 2⁻⁴⁵ at
// coneMaxDim). The stored cos θ is then below every member's own, so the cone
// holds every row itself, not only its copy.
const coneMargin = 0x1p-22

// coneOf stores the cone of the float32 copies pts, none of them zero, each
// chunks(len(cone)-2) chunks padded with zeros, which add nothing: c is their
// sum, widened to float64 (the first copy when the sum all but cancels),
// normalised; cos θ is the least c·w less coneMargin.
func coneOf(cone []float64, pts [][4]float32) {
	d := len(cone) - 2
	nc := chunks(d)
	var cp [coneMaxDim / 4][4]float64 // c, padded with zeros
	for k := range cp[:nc] {
		var c0, c1, c2, c3 float64
		for x := k; x < len(pts); x += nc {
			u := &pts[x]
			c0, c1, c2, c3 = c0+float64(u[0]), c1+float64(u[1]), c2+float64(u[2]), c3+float64(u[3])
		}
		cp[k] = [4]float64{c0, c1, c2, c3}
	}
	c := cone[:d]
	for j := range c {
		c[j] = cp[j/4][j%4]
	}
	n := mat.Norm2(c)
	if n < 0x1p-100 {
		for j := range c {
			c[j] = float64(pts[j/4][j%4])
		}
		n = mat.Norm2(c)
	}
	inv := 1 / n
	for j := range c {
		c[j] *= inv
		cp[j/4][j%4] = c[j]
	}
	cosT := 1.0
	for x := 0; x < len(pts); x += nc {
		var dot float64
		for k, u := range pts[x : x+nc] {
			ck := &cp[k]
			dot += ck[0]*float64(u[0]) + ck[1]*float64(u[1]) + ck[2]*float64(u[2]) + ck[3]*float64(u[3])
		}
		if dot < cosT {
			cosT = dot
		}
	}
	cosT = max(cosT-coneMargin, -1)
	cone[d], cone[d+1] = cosT, math.Sqrt(1-cosT*cosT)
}

// coneBound bounds the cosine score of every member of a node against query
// vector qv, whose norm's inverse is inv: cos(max(0, φ − θ)) plus coneSlack,
// φ being the angle between qv and the centre. Every member lies within θ of
// the centre, so by the triangle inequality on the sphere at least φ − θ from
// qv (DESIGN §13 has the lemma and its roundings).
func coneBound(cone, qv []float64, inv float64) float64 {
	d := len(qv)
	c, cosT, sinT := cone[:d:d], cone[d], cone[d+1]
	var dot float64
	for j, v := range qv {
		dot += v * c[j]
	}
	x := dot * inv // cos φ
	if x >= cosT {
		return 1 + coneSlack
	}
	return x*cosT + math.Sqrt(max(0, 1-x*x))*sinT + coneSlack
}

// bound returns the greatest coneBound of node n over the scan's query
// vectors: no row of the node scores above it.
func (q *scan) bound(n uint32) float64 {
	d := q.ix.Reps.Cols
	cone := q.ix.tree.cones[int(n)*(d+2) : int(n+1)*(d+2)]
	best := math.Inf(-1)
	for c, qv := range q.vecs {
		best = max(best, coneBound(cone, qv, 1/q.qnorms[c]))
	}
	return best
}

// reach is a node of the search's frontier and its bound.
type reach struct {
	bound float64
	node  uint32
}

// before orders the frontier: the higher bound first, the lower node on ties,
// so that the search is the same at any worker count.
func (r reach) before(o reach) bool {
	return r.bound > o.bound || r.bound == o.bound && r.node < o.node
}

// frontier is a binary heap of the nodes the search has bounded and not yet
// expanded, the first under before at its root. push and pop return the
// heap rather than update it through a pointer, so that its array can stay
// on the search's stack.
type frontier []reach

func (f frontier) push(r reach) frontier {
	h := append(f, r)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	return h
}

func (f frontier) pop() (reach, frontier) {
	h := f
	top, last := h[0], len(h)-1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].before(h[c]) {
			c++
		}
		if !h[c].before(h[i]) {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	return top, h
}

// handOffRows is how many rows a tree search reads on the calling goroutine
// before it hands what is left to run's workers: a search that has not
// finished by then is not pruning much. At the benchmark's shape a top-10
// reads a few hundred rows and a 16-client white-space under 2k. Where
// nothing can be pruned, handing off only after minFanoutRows rows left the
// two-worker scan 15–30 % behind one that fans out from the start; after a
// quarter of them it is not (DESIGN §13). The subtrees handed off hold at
// most as many rows again.
const handOffRows = minFanoutRows / 4

// search is the tree's half of run, on the calling goroutine: it pops the
// node with the best bound, stops once that bound is strictly below sel's
// floor, visits a leaf into sel, and bounds an inner node's two children,
// keeping those that reach the floor. A node whose bound equals the floor is
// still expanded: a row there may tie the floor and win on its id. Equal
// bounds pop in node order, depth first, so that what the search reads does
// not depend on the worker count.
//
// Once sel has read handOffRows rows the search stops visiting: what is left
// of the frontier, expanded until each node holds at most handOffRows rows,
// is appended to tail best bound first, for run to hand to its workers as
// tasks, and search returns the extended tail.
func (q *scan) search(ctx context.Context, sel *selection, tail []reach) ([]reach, error) {
	t := &q.ix.tree
	front := make(frontier, 0, 128).push(reach{q.bound(0), 0})
	for len(front) > 0 {
		var r reach
		r, front = front.pop()
		floor := sel.floor()
		if r.bound < floor {
			break
		}
		switch n := t.nodes[r.node]; {
		case sel.rows >= handOffRows && n.hi-n.lo <= handOffRows:
			tail = append(tail, r)
		case n.right != 0:
			for _, kid := range [2]uint32{r.node + 1, n.right} {
				if b := q.bound(kid); b >= floor {
					front = front.push(reach{b, kid})
				}
			}
		default:
			if err := q.visitLeaves(ctx, sel, r.node, int(n.hi)); err != nil {
				return nil, err
			}
			sel.rows += int(n.hi - n.lo)
		}
	}
	// A child's cone is not inside its parent's, so the subtrees came off the
	// frontier in an order their own bounds need not follow.
	slices.SortFunc(tail, func(a, b reach) int {
		switch {
		case a.before(b):
			return -1
		case b.before(a):
			return 1
		}
		return 0
	})
	return tail, nil
}

// visitLeaves visits into sel, one at a time, the leaves from node n on that
// start before position hi — from a subtree's first leaf, all of its leaves —
// and counts them. Ids ascend within a leaf but not across leaves, and
// admit's test for the scan's own ids relies on the first, so no visit may
// span two.
func (q *scan) visitLeaves(ctx context.Context, sel *selection, n uint32, hi int) error {
	nodes := q.ix.tree.nodes
	for ; int(n) < len(nodes) && int(nodes[n].lo) < hi; n++ {
		if nd := nodes[n]; nd.right == 0 {
			if err := q.visit(ctx, sel, nil, int(nd.lo), int(nd.hi), false); err != nil {
				return err
			}
			sel.leaves++
		}
	}
	return nil
}

// leaf returns the leaf that holds position p.
func (t *tree) leaf(p int) uint32 {
	n := uint32(0)
	for r := t.nodes[0].right; r != 0; r = t.nodes[n].right {
		if p < int(t.nodes[r].lo) {
			n++
		} else {
			n = r
		}
	}
	return n
}
