package core

import (
	"context"
	"math"
	"slices"

	"repro/internal/mat"
	"repro/internal/par"
)

// leaves groups the owned ids of a cosine index into parts of at most
// scanBlock rows whose directions lie close together, each bounded by a cone:
// a unit centre c and the cosine and sine of a half-angle θ such that every
// member lies within θ of c. No member of a leaf can score above
// the leaf's coneBound against a query vector, so an exact scan visits the
// leaves best bound first and stops at the first one its floor has passed
// (scan.run; DESIGN §13 has the lemma). 4 B per owned company and (d+2)·8 B
// plus 4 B per leaf.
type leaves struct {
	rows  []uint32  // the owned ids leaf by leaf, ascending within a leaf
	start []uint32  // leaf l is rows[start[l]:start[l+1]]; nil when none are built
	cones []float64 // leaf l's d+2 values from l·(d+2): c, cos θ, sin θ
}

// coneMaxDim is the widest representation the cone bound is proved for, and
// coneSlack the absolute margin that absorbs its roundings and the score's
// (DESIGN §13): at width 64 they come to under 2⁻²¹.
const (
	coneMaxDim = 64
	coneSlack  = 0x1p-20
)

// groupLeaves builds the leaves over the owned ids (every id when the index is
// not partitioned): unit-normalised rows are split at the median of their
// widest coordinate until a part holds at most scanBlock rows. It builds none
// where the bound is not proved: under Euclidean, with a norm outside the
// floor test's range, or past coneMaxDim.
//
// It works on float32 copies of the unit rows, half the bytes to move; the
// cones allow for their rounding (coneMargin). The parts' sizes depend on the
// number of rows alone, and the parts of one level split in parallel, each
// into its own range, so the leaves are the same at any worker count.
func (ix *Index) groupLeaves() {
	ix.leaves = leaves{}
	d := ix.Reps.Cols
	if ix.Metric == Euclidean || !ix.normsInRange || d > coneMaxDim {
		return
	}
	m := ix.OwnedCompanies()
	id := func(p uint32) int {
		if ix.owned == nil {
			return int(p)
		}
		return int(ix.owned[p])
	}
	b := leafBuild{d: d, pts: make([]float32, m*d),
		pos: make([]uint32, m), apos: make([]uint32, m),
		keys: make([]float32, m), work: make([]float32, m),
	}
	for p := range b.pos {
		b.pos[p] = uint32(p)
		if rn := ix.norms[id(uint32(p))]; rn != 0 {
			inv := 1 / rn
			u := b.pts[p*d : (p+1)*d]
			for j, v := range ix.Reps.Row(id(uint32(p))) {
				u[j] = float32(v * inv)
			}
		}
	}
	var parts []part
	if m > 0 {
		parts = []part{{0, m, b.widest(b.pos[:m])}}
	}
	for slices.ContainsFunc(parts, func(p part) bool { return p.hi-p.lo > scanBlock }) {
		next := make([]part, 2*len(parts))
		_ = par.ForEach(context.Background(), len(parts), func(t int) error {
			next[2*t], next[2*t+1] = b.split(parts[t])
			return nil
		})
		b.pos, b.apos = b.apos, b.pos
		parts = slices.DeleteFunc(next, func(p part) bool { return p.hi == p.lo })
	}
	start := make([]uint32, len(parts)+1)
	for l, p := range parts {
		start[l+1] = uint32(p.hi)
	}
	leafOf := b.apos // the last level's source, free now
	cones := make([]float64, len(parts)*(d+2))
	const group = 64 // leaves per task
	_ = par.ForEach(context.Background(), (len(parts)+group-1)/group, func(t int) error {
		units := make([]float64, scanBlock*d)
		for l := t * group; l < min((t+1)*group, len(parts)); l++ {
			p := parts[l]
			for _, pos := range b.pos[p.lo:p.hi] {
				leafOf[pos] = uint32(l)
			}
			cone := cones[l*(d+2) : (l+1)*(d+2)]
			if n := b.units(units, b.pos[p.lo:p.hi]); n < p.hi-p.lo {
				cone[d] = -1 // θ = π, the whole sphere: the bound is 1 + coneSlack
			} else {
				coneOf(cone, units[:n*d])
			}
		}
		return nil
	})
	// Ids ascend within a leaf, as admit assumes: a counting sort by leaf of
	// the owned positions in ascending order.
	next := slices.Clone(start[:len(parts)])
	rows := make([]uint32, m)
	for p, l := range leafOf {
		rows[next[l]] = uint32(id(uint32(p)))
		next[l]++
	}
	ix.leaves = leaves{rows: rows, start: start, cones: cones}
}

// part is a range of positions of a level of the build and the coordinate
// along which their rows spread widest.
type part struct{ lo, hi, axis int }

// leafBuild is the scratch of groupLeaves. pts holds the unit rows in owned
// order, d values each; pos lists the owned positions part by part, and apos
// receives the next level's. keys holds the split coordinate of a part's rows
// in pos order, and work a copy of it to select from.
type leafBuild struct {
	d          int
	pts        []float32
	pos, apos  []uint32
	keys, work []float32
}

// widest returns the coordinate along which the rows at positions ps spread
// widest — over a strided sample of at most widestSample of them — the first
// on ties; 0 for a leaf, which does not split.
func (b *leafBuild) widest(ps []uint32) int {
	if len(ps) <= scanBlock {
		return 0
	}
	d, step := b.d, max(1, len(ps)/widestSample)
	axis, most := 0, float32(-1)
	for j := 0; j < d; j++ {
		mn, mx := b.pts[int(ps[0])*d+j], b.pts[int(ps[0])*d+j]
		for x := step; x < len(ps); x += step {
			if v := b.pts[int(ps[x])*d+j]; v < mn {
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

// split moves part p's positions into apos: a part of at most scanBlock rows
// as it is, and a larger one as two halves, the rows whose coordinate p.axis
// is below its median first, those above it last, and rows at the median
// filling the first half up. It returns the halves, or p and an empty part.
func (b *leafBuild) split(p part) (part, part) {
	d, lo, hi, axis := b.d, p.lo, p.hi, p.axis
	if hi-lo <= scanBlock {
		copy(b.apos[lo:hi], b.pos[lo:hi])
		return p, part{}
	}
	mid := lo + (hi-lo)/2
	keys, work := b.keys[lo:hi], b.work[lo:hi]
	for x, pos := range b.pos[lo:hi] {
		keys[x] = b.pts[int(pos)*d+axis]
	}
	copy(work, keys)
	med, below := selectRank(work, mid-lo)
	ties := mid - lo - below
	l, r := lo, mid
	for x, v := range keys {
		left := 0
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
		b.apos[to] = b.pos[lo+x]
		l += left
		r += 1 - left
	}
	return part{lo, mid, b.widest(b.apos[lo:mid])}, part{mid, hi, b.widest(b.apos[mid:hi])}
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

// units stores at the front of units, widened, the float32 rows at
// positions ps that have a direction, and returns how many it stored. A zero
// row has none: its copy is zero, and it scores 0 against any query.
func (b *leafBuild) units(units []float64, ps []uint32) int {
	d, n := b.d, 0
	for _, pos := range ps {
		u := units[n*d : (n+1)*d]
		var sq float64
		for j, v := range b.pts[int(pos)*d : int(pos+1)*d] {
			u[j] = float64(v)
			sq += u[j] * u[j]
		}
		if sq != 0 {
			n++
		}
	}
	return n
}

// coneMargin is subtracted from the least c·u of a leaf's rows, which can be
// off from the cosine of the angle between c and a row by the float32
// rounding of the copy (2⁻²⁴) and some float64 roundings (under 2⁻⁴⁵ at
// coneMaxDim). The stored cos θ is then below every member's own, so the cone
// holds every row itself, not only its copy.
const coneMargin = 0x1p-22

// coneOf stores the cone of the rows in units, len(cone)-2 values each and
// none of them zero: c is their sum (the first row when the sum all but
// cancels) normalised in float64, cos θ the least c·u less coneMargin.
func coneOf(cone, units []float64) {
	d := len(cone) - 2
	c := cone[:d]
	clear(c)
	for x := 0; x < len(units); x += d {
		for j, v := range units[x : x+d] {
			c[j] += v
		}
	}
	n := mat.Norm2(c)
	if n < 0x1p-100 {
		copy(c, units[:d])
		n = mat.Norm2(c)
	}
	inv := 1 / n
	for j := range c {
		c[j] *= inv
	}
	cosT := 1.0
	for x := 0; x < len(units); x += d {
		cosT = min(cosT, mat.Dot(c, units[x:x+d]))
	}
	cosT = max(cosT-coneMargin, -1)
	cone[d], cone[d+1] = cosT, math.Sqrt(1-cosT*cosT)
}

// coneBound bounds the cosine score of every member of a leaf against query
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

// leafBounds returns, per leaf, the greatest coneBound over the scan's query
// vectors: no row of the leaf scores above it.
func (q *scan) leafBounds() []float64 {
	lv, d := &q.ix.leaves, q.ix.Reps.Cols
	bounds := make([]float64, len(lv.start)-1)
	for c, qv := range q.vecs {
		inv := 1 / q.qnorms[c]
		for l := range bounds {
			b := coneBound(lv.cones[l*(d+2):(l+1)*(d+2)], qv, inv)
			if c == 0 || b > bounds[l] {
				bounds[l] = b
			}
		}
	}
	return bounds
}
