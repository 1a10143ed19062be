package cluster

import (
	"math"
	"testing"

	"repro/internal/mat"
	"repro/internal/rng"
)

// blobs generates k well-separated Gaussian clusters of size each.
func blobs(k, each, dim int, sep float64, g *rng.RNG) (*mat.Matrix, []int) {
	x := mat.New(k*each, dim)
	truth := make([]int, k*each)
	for c := 0; c < k; c++ {
		center := make([]float64, dim)
		for d := range center {
			center[d] = sep * float64(c) * math.Cos(float64(d+c))
		}
		center[0] = sep * float64(c)
		for i := 0; i < each; i++ {
			row := x.Row(c*each + i)
			for d := range row {
				row[d] = center[d] + 0.3*g.Norm()
			}
			truth[c*each+i] = c
		}
	}
	return x, truth
}

func TestKMeansValidation(t *testing.T) {
	x := mat.New(3, 2)
	if _, err := KMeans(x, KMeansConfig{K: 0}, rng.New(1)); err == nil {
		t.Fatal("K=0 accepted")
	}
	if _, err := KMeans(x, KMeansConfig{K: 5}, rng.New(1)); err == nil {
		t.Fatal("more clusters than points accepted")
	}
}

func TestKMeansRecoversBlobs(t *testing.T) {
	g := rng.New(3)
	x, _ := blobs(3, 40, 4, 10, g)
	res, err := KMeans(x, KMeansConfig{K: 3, Restarts: 5}, g)
	if err != nil {
		t.Fatal(err)
	}
	// cluster purity: every true cluster maps to one predicted cluster
	for c := 0; c < 3; c++ {
		counts := map[int]int{}
		for i := c * 40; i < (c+1)*40; i++ {
			counts[res.Assignment[i]]++
		}
		maxC := 0
		for _, v := range counts {
			if v > maxC {
				maxC = v
			}
		}
		if maxC < 38 {
			t.Fatalf("true cluster %d impure: %v", c, counts)
		}
	}
	if res.Inertia <= 0 {
		t.Fatalf("inertia = %v", res.Inertia)
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	g := rng.New(5)
	x, _ := blobs(4, 30, 3, 6, g)
	prev := math.Inf(1)
	for _, k := range []int{1, 2, 4, 8} {
		res, err := KMeans(x, KMeansConfig{K: k, Restarts: 4}, g)
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia > prev*1.01 {
			t.Fatalf("inertia increased from %v to %v at k=%d", prev, res.Inertia, k)
		}
		prev = res.Inertia
	}
}

func TestKMeansDeterministic(t *testing.T) {
	x, _ := blobs(3, 20, 3, 8, rng.New(7))
	r1, err := KMeans(x, KMeansConfig{K: 3}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := KMeans(x, KMeansConfig{K: 3}, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Assignment {
		if r1.Assignment[i] != r2.Assignment[i] {
			t.Fatal("k-means not deterministic under identical seeds")
		}
	}
}

func TestKMeansSinglePointClusters(t *testing.T) {
	// exactly K points: each its own cluster, inertia 0
	x := mat.FromSlice(3, 2, []float64{0, 0, 10, 0, 0, 10})
	res, err := KMeans(x, KMeansConfig{K: 3}, rng.New(13))
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-12 {
		t.Fatalf("inertia = %v, want 0", res.Inertia)
	}
	seen := map[int]bool{}
	for _, a := range res.Assignment {
		if seen[a] {
			t.Fatal("duplicate cluster for distinct points")
		}
		seen[a] = true
	}
}

// TestKMeansReseedsEmptyClustersAtDistinctPoints pins the one re-seeding
// rule. Eight points on three locations and K=5: k-means++ runs out of
// distinct locations, two centers start as duplicates and end the assignment
// pass empty while every point sits on its center. Each empty cluster must
// take the farthest point by that pass's distances — all tie at zero, so the
// lowest index — and a point already taken is out of the running.
func TestKMeansReseedsEmptyClustersAtDistinctPoints(t *testing.T) {
	a, b, c := []float64{0, 0}, []float64{10, 0}, []float64{0, 10}
	x := mat.New(8, 2)
	for i, p := range [][]float64{a, b, c, c, c, a, b, b} {
		copy(x.Row(i), p)
	}
	for seed := int64(1); seed <= 20; seed++ {
		res, err := KMeans(x, KMeansConfig{K: 5, Restarts: 1}, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		if res.Inertia != 0 {
			t.Fatalf("seed %d: inertia = %v, want 0", seed, res.Inertia)
		}
		members := make([]int, 5)
		for _, cl := range res.Assignment {
			members[cl]++
		}
		var reseeded [][]float64
		for cl, n := range members {
			if n == 0 {
				reseeded = append(reseeded, res.Centers.Row(cl))
			}
		}
		if len(reseeded) != 2 {
			t.Fatalf("seed %d: %d empty clusters, want 2 (members %v)", seed, len(reseeded), members)
		}
		if mat.SqDist(reseeded[0], x.Row(0)) != 0 || mat.SqDist(reseeded[1], x.Row(1)) != 0 {
			t.Fatalf("seed %d: empty clusters re-seeded at %v and %v, want points 0 %v and 1 %v",
				seed, reseeded[0], reseeded[1], x.Row(0), x.Row(1))
		}
	}
}

func TestSilhouetteSeparatedVsOverlapping(t *testing.T) {
	g := rng.New(17)
	// well-separated blobs: silhouette near 1
	xs, truth := blobs(3, 30, 3, 20, g)
	s1, err := Silhouette(xs, truth, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s1 < 0.8 {
		t.Fatalf("separated silhouette = %v, want > 0.8", s1)
	}
	// overlapping blobs: much lower
	xo, truthO := blobs(3, 30, 3, 0.3, g)
	s2, err := Silhouette(xo, truthO, 3)
	if err != nil {
		t.Fatal(err)
	}
	if s2 >= s1 {
		t.Fatalf("overlapping silhouette %v should be below separated %v", s2, s1)
	}
	if s2 < -1 || s1 > 1 {
		t.Fatal("silhouette out of [-1,1]")
	}
}

func TestSilhouetteRandomAssignmentNearZero(t *testing.T) {
	g := rng.New(19)
	x, _ := blobs(1, 100, 4, 0, g) // one blob, no structure
	assign := make([]int, 100)
	for i := range assign {
		assign[i] = g.Intn(3)
	}
	s, err := Silhouette(x, assign, 3)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(s) > 0.12 {
		t.Fatalf("random-assignment silhouette = %v, want ~0", s)
	}
}

func TestSilhouetteValidation(t *testing.T) {
	x := mat.New(4, 2)
	if _, err := Silhouette(x, []int{0, 1}, 2); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Silhouette(x, []int{0, 0, 0, 0}, 1); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := Silhouette(x, []int{0, 1, 2, 5}, 3); err == nil {
		t.Fatal("out-of-range assignment accepted")
	}
}

func TestSilhouetteSampledMatchesFullOnSmallData(t *testing.T) {
	g := rng.New(23)
	x, truth := blobs(2, 25, 3, 10, g)
	full, err := Silhouette(x, truth, 2)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := SilhouetteSampled(x, truth, 2, 1000, g)
	if err != nil {
		t.Fatal(err)
	}
	if full != sampled {
		t.Fatalf("under-threshold sampling changed result: %v vs %v", full, sampled)
	}
	sub, err := SilhouetteSampled(x, truth, 2, 30, g)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sub-full) > 0.15 {
		t.Fatalf("sampled silhouette %v too far from full %v", sub, full)
	}
}

func TestSpectralCoClusterBlockMatrix(t *testing.T) {
	// Block-diagonal binary matrix: rows 0-19 use cols 0-4, rows 20-39 use
	// cols 5-9. Spectral co-clustering must recover the two blocks.
	g := rng.New(29)
	a := mat.New(40, 10)
	for i := 0; i < 40; i++ {
		base := 0
		if i >= 20 {
			base = 5
		}
		for j := 0; j < 5; j++ {
			if g.Float64() < 0.8 {
				a.Set(i, base+j, 1)
			}
		}
		a.Set(i, base, 1) // guarantee non-empty rows
	}
	res, err := SpectralCoCluster(a, 2, g)
	if err != nil {
		t.Fatal(err)
	}
	// row purity
	agree := 0
	for i := 0; i < 20; i++ {
		if res.RowAssignment[i] == res.RowAssignment[0] {
			agree++
		}
	}
	for i := 20; i < 40; i++ {
		if res.RowAssignment[i] != res.RowAssignment[0] {
			agree++
		}
	}
	if agree < 36 {
		t.Fatalf("row co-clusters impure: %d/40 correct", agree)
	}
	// column purity
	colAgree := 0
	for j := 0; j < 5; j++ {
		if res.ColAssignment[j] == res.ColAssignment[0] {
			colAgree++
		}
	}
	for j := 5; j < 10; j++ {
		if res.ColAssignment[j] != res.ColAssignment[0] {
			colAgree++
		}
	}
	if colAgree < 9 {
		t.Fatalf("column co-clusters impure: %d/10 correct", colAgree)
	}
}

func TestSpectralCoClusterValidation(t *testing.T) {
	a := mat.New(5, 5)
	if _, err := SpectralCoCluster(a, 1, rng.New(1)); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := SpectralCoCluster(a, 9, rng.New(1)); err == nil {
		t.Fatal("k > dims accepted")
	}
}

func TestSpectralCoClusterToleratesEmptyRows(t *testing.T) {
	g := rng.New(31)
	a := mat.New(10, 6)
	for i := 0; i < 9; i++ { // last row all zero
		a.Set(i, i%6, 1)
		a.Set(i, (i+1)%6, 1)
	}
	if _, err := SpectralCoCluster(a, 2, g); err != nil {
		t.Fatalf("empty row crashed co-clustering: %v", err)
	}
}
