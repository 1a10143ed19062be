// Package core implements the paper's deployed application (Section 6): a
// company-similarity index over learned LDA representations with business
// filtering (industry, location, employees, revenue), top-k similar-company
// search, and gap-based product recommendations — products that similar
// companies own but the target lacks, weighted by company similarity.
package core

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"repro/internal/corpus"
	"repro/internal/mat"
	"repro/internal/obs"
	"repro/internal/trace"
)

// Serving-path metrics. Candidate counters are accumulated locally per query
// and added once, so the per-candidate hot loop carries no atomic traffic.
var (
	topkLatency = obs.Default().Histogram("topk_latency_seconds",
		"end-to-end latency of similarity top-k queries", obs.DefBuckets)
	topkRequests = obs.Default().Counter("topk_requests_total",
		"similarity top-k queries served")
	topkAdmitted = obs.Default().Counter("topk_candidates_admitted_total",
		"candidate rows a top-k scan tested against the business filter and admitted (rows a tree search skipped count neither way)")
	topkFiltered = obs.Default().Counter("topk_candidates_filtered_total",
		"candidate rows a top-k scan tested against the business filter and refused (rows a tree search skipped count neither way)")
	recRequests = obs.Default().Counter("recommend_requests_total",
		"gap-based product recommendation queries served")
	recFanout = obs.Default().Histogram("recommend_fanout_products",
		"number of recommended product categories per recommendation query", obs.SizeBuckets)
	wsLatency = obs.Default().Histogram("whitespace_latency_seconds",
		"end-to-end latency of white-space prospect queries", obs.DefBuckets)
	wsRequests = obs.Default().Counter("whitespace_requests_total",
		"white-space prospect queries served")
	topkErrors = obs.Default().Counter("topk_errors_total",
		"similarity top-k queries that failed (invalid arguments or cancelled)")
	recErrors = obs.Default().Counter("recommend_errors_total",
		"recommendation queries that failed (invalid arguments or cancelled)")
	wsErrors = obs.Default().Counter("whitespace_errors_total",
		"white-space queries that failed (invalid arguments or cancelled)")
	indexCompanies = obs.Default().Gauge("index_companies",
		"companies in the most recently built similarity index")
	annTopkQueries = obs.Default().Counter("ann_topk_queries_total",
		"top-k queries answered through the ANN candidate pruner (exact scans are topk_requests_total minus this)")
	annWhitespaceQueries = obs.Default().Counter("ann_whitespace_queries_total",
		"white-space queries answered through the ANN candidate pruner")
	annTopkCandidates = obs.Default().Counter("ann_topk_candidates_scanned_total",
		"candidate companies the ANN pruner admitted into top-k re-rank pools")
	annWhitespaceCandidates = obs.Default().Counter("ann_whitespace_candidates_scanned_total",
		"candidate companies the ANN pruner admitted into white-space re-rank pools")
	annCellsProbed = obs.Default().Counter("ann_cells_probed_total",
		"centroid cells scanned across all ANN-pruned queries")
)

// Metric names the similarity of an index. Cosine, over the topic mixtures,
// is the one there is; NewIndex, NewScorer and ann.Build take it so that their
// callers say which similarity they rank by.
type Metric int

// Cosine similarity: the angle between two topic mixtures.
const Cosine Metric = 0

// Filter restricts similarity search results, mirroring the tool's filtering
// capabilities "based on industry, location, number of employees and
// revenue". Zero values mean "any".
type Filter struct {
	SIC2         int
	Country      string
	MinEmployees int
	MaxEmployees int
	MinRevenueM  float64
	MaxRevenueM  float64
}

// Admits reports whether a company passes the filter.
func (f Filter) Admits(c *corpus.Company) bool {
	if f.SIC2 != 0 && c.SIC2 != f.SIC2 {
		return false
	}
	if f.Country != "" && c.Country != f.Country {
		return false
	}
	if f.MinEmployees != 0 && c.Employees < f.MinEmployees {
		return false
	}
	if f.MaxEmployees != 0 && c.Employees > f.MaxEmployees {
		return false
	}
	if f.MinRevenueM != 0 && c.RevenueM < f.MinRevenueM {
		return false
	}
	if f.MaxRevenueM != 0 && c.RevenueM > f.MaxRevenueM {
		return false
	}
	return true
}

// Match is one similarity-search hit.
type Match struct {
	CompanyID  int
	Similarity float64
}

// Index is the in-memory similarity index: one representation vector per
// company (row i of reps belongs to corpus company i). An index may be
// restricted to one partition of the corpus (SetPartition) for sharded
// serving: the representations stay complete — so query vectors and
// recommendation scoring remain available for any company — but the
// candidate scans visit only the owned partition, and a scatter-gather
// merge of every partition's answers under the package's total orders
// reproduces the unpartitioned answer byte for byte.
//
// Everything a scan needs per candidate that does not depend on the query is
// computed once, at build time: the row norms and filter columns (NewIndex),
// the owned-id list (SetPartition), the candidate lists of the equality
// columns and the cone trees over all owned ids and over each list (both).
// Corpus and Reps must not change after NewIndex. Copying the struct shares
// the columns, which is how the reload probe check gets a pruner-free twin
// of an approximate index.
type Index struct {
	Corpus *corpus.Corpus
	Reps   *mat.Matrix

	part, parts int      // candidate-scan partition; parts <= 1 scans everything
	owned       []uint32 // ascending owned ids when parts > 1; nil = every id
	// bySIC2 and byCountry group the owned ids by their code in cols.sic2 and
	// cols.country, each code's under a cone tree: the candidates of an
	// equality filter.
	bySIC2, byCountry codeLists
	tree              tree // the owned ids under a cone tree: what an unfiltered scan searches

	norms []float64     // norms[i] = ‖Reps.Row(i)‖, summed in Scorer.Score's order
	cols  filterColumns // the Filter-tested attributes of Corpus.Companies
	// normsInRange: every norm is 0 or inside [rejectNormMin, rejectNormMax],
	// the row-side precondition of the scans' floor test (scan.reject).
	normsInRange bool

	pruner Pruner // nil = exact full scan (the default escape hatch)
}

// Pruner narrows a candidate scan to an approximate pool — the ANN fast
// path. Implementations (internal/ann's coarse k-means router) return, for a
// set of query vectors, the union of their probed cells: one slice per cell,
// ascending company ids within a cell, disjoint cells in ascending order.
// The scan re-ranks the pool exactly (same scorer, same filter, same total
// order), so pruning only ever affects which candidates are considered,
// never how survivors are ranked. A Pruner must be safe for concurrent use
// and deterministic: identical queries yield identical pools at any worker
// count.
type Pruner interface {
	Candidates(queries [][]float64) [][]int64
	Info() PrunerInfo
}

// PrunerInfo describes an installed candidate pruner for health reporting.
type PrunerInfo struct {
	Cells  int  // coarse cells in the index
	NProbe int  // cells probed per query vector
	Mapped bool // centroids and postings alias an mmap (IBSNAP v2)
}

// SetPruner installs an approximate candidate source on the index's scans;
// nil restores the exact full scan. Install at build time, before serving —
// the field is not synchronized. Partitioning composes: a pruned scan on a
// partitioned index still visits only owned candidates, so per-shard pruned
// answers merge (MergeTopK) byte-identically to an unsharded pruned server.
func (ix *Index) SetPruner(p Pruner) { ix.pruner = p }

// Pruner returns the installed candidate pruner, nil when scans are exact.
func (ix *Index) Pruner() Pruner { return ix.pruner }

// PartitionOf maps a company id to its partition in [0, parts): FNV-1a over
// the id's eight little-endian bytes, mod parts. The hash is fixed — never
// change it — so the split is byte-stable across processes, platforms and
// releases, which is what lets shard processes agree on ownership without
// coordination. parts <= 1 maps everything to partition 0.
func PartitionOf(id, parts int) int {
	if parts <= 1 {
		return 0
	}
	h := uint64(14695981039346656037) // FNV-1a 64-bit offset basis
	v := uint64(id)
	for i := 0; i < 8; i++ {
		h ^= (v >> (8 * i)) & 0xff
		h *= 1099511628211 // FNV-1a 64-bit prime
	}
	return int(h % uint64(parts))
}

// SetPartition restricts the index's candidate scans to partition part of
// parts (per PartitionOf), hashing every id once to materialise the ascending
// owned-id list the scans walk, and regroups the equality columns' candidate
// lists and the cone trees to the owned ids. Call once at build time, before
// serving; parts of 0 or 1 restores the full scan. NewShardIndex builds a
// partitioned index without first building the unpartitioned one.
func (ix *Index) SetPartition(part, parts int) error {
	if parts <= 1 {
		ix.part, ix.parts, ix.owned = 0, 0, nil
		ix.groupOwned()
		return nil
	}
	if part < 0 || part >= parts {
		return fmt.Errorf("core: partition %d outside [0,%d)", part, parts)
	}
	n := ix.Corpus.N()
	// The hash is near-uniform: an eighth of slack spares the regrow.
	owned := make([]uint32, 0, n/parts+n/(8*parts)+1)
	for i := 0; i < n; i++ {
		if PartitionOf(i, parts) == part {
			owned = append(owned, uint32(i))
		}
	}
	ix.part, ix.parts, ix.owned = part, parts, owned
	ix.groupOwned()
	return nil
}

// groupOwned builds the candidate lists of the two equality columns and the
// cone trees over the owned ids.
func (ix *Index) groupOwned() {
	ix.bySIC2 = newCodeLists(ix.cols.sic2, len(ix.cols.sic2Codes), ix.owned)
	ix.byCountry = newCodeLists(ix.cols.country, len(ix.cols.countryCodes), ix.owned)
	ix.groupLeaves()
}

// Partition reports the scan restriction: the partition index and count
// (0, 1 when unpartitioned).
func (ix *Index) Partition() (part, parts int) {
	if ix.parts <= 1 {
		return 0, 1
	}
	return ix.part, ix.parts
}

// owns reports whether company i is a scan candidate on this index. Exact
// scans walk the owned list, or a tree or list over it, instead; only pruned
// scans, whose cells hold ids of every partition, ask per candidate.
func (ix *Index) owns(i int) bool {
	return ix.parts <= 1 || PartitionOf(i, ix.parts) == ix.part
}

// OwnedCompanies counts the companies this index's candidate scans visit.
func (ix *Index) OwnedCompanies() int {
	if ix.parts <= 1 {
		return ix.Corpus.N()
	}
	return len(ix.owned)
}

// NewIndex validates shapes and builds an index, including its scan columns
// (one pass over the companies and one over the representation rows), the
// equality columns' candidate lists (a counting sort each) and the cone trees.
// metric must be Cosine.
func NewIndex(c *corpus.Corpus, reps *mat.Matrix, metric Metric) (*Index, error) {
	return NewShardIndex(c, reps, metric, 0, 1)
}

// NewShardIndex is NewIndex followed by SetPartition(part, parts), except that
// the candidate lists and cone trees are built once, over the owned ids only.
func NewShardIndex(c *corpus.Corpus, reps *mat.Matrix, metric Metric, part, parts int) (*Index, error) {
	if metric != Cosine {
		return nil, fmt.Errorf("core: unknown metric %d", metric)
	}
	if reps.Rows != c.N() {
		return nil, fmt.Errorf("core: %d representation rows for %d companies", reps.Rows, c.N())
	}
	if reps.Cols < 1 {
		return nil, fmt.Errorf("core: empty representations")
	}
	if uint64(c.N()) >= noCode {
		return nil, fmt.Errorf("core: %d companies, an index holds fewer than %d", c.N(), uint64(noCode))
	}
	norms := make([]float64, reps.Rows)
	inRange := true
	for i := range norms {
		norms[i] = mat.Norm2(reps.Row(i))
		if norms[i] != 0 && !normInRange(norms[i]) {
			inRange = false
		}
	}
	ix := &Index{Corpus: c, Reps: reps, norms: norms, cols: newFilterColumns(c.Companies), normsInRange: inRange}
	if err := ix.SetPartition(part, parts); err != nil {
		return nil, err
	}
	indexCompanies.Set(float64(c.N()))
	return ix, nil
}

// TopK returns the k companies most similar to company id (excluding
// itself) that pass the filter, sorted by descending similarity with
// deterministic id tie-breaks.
func (ix *Index) TopK(id, k int, f Filter) ([]Match, error) {
	return ix.TopKContext(context.Background(), id, k, f)
}

// TopKContext is TopK with a deadline- or cancellation-carrying context
// threaded into the candidate scan, for serving paths that enforce
// per-request deadlines. A cancelled query returns ctx.Err() and counts
// toward topk_errors_total, not topk_requests_total.
func (ix *Index) TopKContext(ctx context.Context, id, k int, f Filter) ([]Match, error) {
	if id < 0 || id >= ix.Corpus.N() {
		topkErrors.Inc()
		return nil, fmt.Errorf("core: company id %d outside [0,%d)", id, ix.Corpus.N())
	}
	return ix.topKByVector(ctx, ix.Reps.Row(id), k, f, id)
}

// TopKByVectorContext searches with an explicit query vector (e.g. the
// inferred representation of a company outside the corpus) under a
// per-request context.
func (ix *Index) TopKByVectorContext(ctx context.Context, query []float64, k int, f Filter) ([]Match, error) {
	if len(query) != ix.Reps.Cols {
		topkErrors.Inc()
		return nil, fmt.Errorf("core: query dimension %d, index dimension %d", len(query), ix.Reps.Cols)
	}
	return ix.topKByVector(ctx, query, k, f, -1)
}

// MatchBetter is the total order of the candidate scans: similarity
// descending with deterministic id tie-breaks. Being total, the top-k it
// selects is unique, so sharded selection returns exactly what a full sort
// would at any shard or worker count. Exported so scatter-gather routers can
// merge per-shard answers under the exact order the scans used.
func MatchBetter(a, b Match) bool {
	if a.Similarity != b.Similarity {
		return a.Similarity > b.Similarity
	}
	return a.CompanyID < b.CompanyID
}

// topkHeap is a bounded selection heap: a min-heap under better holding at
// most k elements, with the worst retained element at the root. Pushing N
// candidates costs O(N log k) instead of the O(N log N) of sorting the full
// candidate set. better must be a total order so the selected top-k is
// unique regardless of push order or sharding.
type topkHeap[T any] struct {
	k      int
	better func(a, b T) bool
	m      []T
}

// push offers a candidate, evicting the worst retained element when full.
func (h *topkHeap[T]) push(c T) {
	if len(h.m) < h.k {
		h.m = append(h.m, c)
		// sift up: a parent better than its child violates the worst-at-root
		// invariant, so swap until the parent is worse (or we reach the root)
		i := len(h.m) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !h.better(h.m[p], h.m[i]) {
				break
			}
			h.m[i], h.m[p] = h.m[p], h.m[i]
			i = p
		}
		return
	}
	if !h.better(c, h.m[0]) {
		return
	}
	h.m[0] = c
	// sift down: move the new root below any worse descendant
	i := 0
	for {
		worst := i
		if l := 2*i + 1; l < len(h.m) && h.better(h.m[worst], h.m[l]) {
			worst = l
		}
		if r := 2*i + 2; r < len(h.m) && h.better(h.m[worst], h.m[r]) {
			worst = r
		}
		if worst == i {
			return
		}
		h.m[i], h.m[worst] = h.m[worst], h.m[i]
		i = worst
	}
}

// sorted drains the heap into best-first order.
func (h *topkHeap[T]) sorted() []T {
	sortBest(h.m, h.better)
	return h.m
}

// sortBest sorts s best-first under the total order better.
func sortBest[T any](s []T, better func(a, b T) bool) {
	slices.SortFunc(s, func(a, b T) int {
		switch {
		case better(a, b):
			return -1
		case better(b, a):
			return 1
		}
		return 0
	})
}

// MergeTopK combines per-shard bounded-heap selections into the global
// top-k: concatenate (at most shards*k elements), sort under the same total
// order, truncate. Deterministic because the order is total — which is why a
// scatter-gather router merging per-process shard answers with this function
// (under MatchBetter or ProspectBetter) reproduces the unsharded answer
// exactly, regardless of response arrival order.
func MergeTopK[T any](shards [][]T, k int, better func(a, b T) bool) []T {
	var total int
	for _, s := range shards {
		total += len(s)
	}
	merged := make([]T, 0, total)
	for _, s := range shards {
		merged = append(merged, s...)
	}
	sortBest(merged, better)
	if len(merged) > k {
		merged = merged[:k]
	}
	return merged
}

func (ix *Index) topKByVector(ctx context.Context, query []float64, k int, f Filter, exclude int) ([]Match, error) {
	if k < 1 {
		topkErrors.Inc()
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	start := time.Now()
	ctx, sp := trace.Start(ctx, "core.topk")
	sp.AttrInt("k", int64(k))
	sp.AttrInt("candidates", int64(ix.OwnedCompanies()))
	// exclude is -1 for a free query vector: an id no candidate has.
	q := ix.newScan(k, f, [][]float64{query}, []int{exclude})
	best, admitted, rejected, err := q.run(ctx, sp, annTopkQueries, annTopkCandidates)
	if err != nil {
		topkErrors.Inc()
		sp.Error(err)
		sp.End()
		return nil, err
	}
	matches := make([]Match, len(best))
	for r, b := range best {
		matches[r] = Match{CompanyID: b.CompanyID, Similarity: b.Similarity}
	}
	sp.AttrInt("admitted", int64(admitted))
	sp.AttrInt("filtered", int64(rejected))
	sp.End()
	topkRequests.Inc()
	topkAdmitted.Add(admitted)
	topkFiltered.Add(rejected)
	topkLatency.Observe(time.Since(start).Seconds())
	return matches, nil
}

// scan is one candidate scan bound to its query: every top-k and white-space
// query, exact or pruned, partitioned or not, runs through scan.visit. A
// top-k is the one-vector case of a white-space scan — MatchBetter and
// ProspectBetter are the same order — so candidates are WhitespaceProspects
// throughout and TopK drops NearestClient from the k survivors.
type scan struct {
	ix     *Index
	k      int
	vecs   [][]float64 // query vectors: the query row, or one row per client
	qnorms []float64   // ‖vecs[c]‖
	// ids[c] is the company vecs[c] belongs to: reported as NearestClient,
	// and never a candidate itself (skip is the set of them).
	ids  []int
	skip idSet
	// rows resolves an exact scan's positions to ids: the rows of the tree it
	// searches, the owned list, the candidate list narrow chose on an index
	// with no tree, or nil for the identity. A pruned scan walks its cells
	// instead.
	rows []uint32
	// tree and root are the cone tree the scan searches — the index's, or the
	// one over narrow's list — and the node it is rooted at; tree is nil when
	// the scan does not search.
	tree *tree
	root uint32
	// filter is what is left to test row by row once the list is chosen.
	filter columnFilter
	// filtered: admit has a test left to make. floorTest: every norm the floor
	// test multiplies — the index's and the query vectors' — is inside its
	// range (reject).
	filtered, floorTest bool
	// leaves: the scan searches its cone tree best bound first for the leaves
	// it has to visit (search). It is exact and meets the floor test's
	// preconditions, which are the cone bound's too; whatever its filter is,
	// admit tests what narrow left of it, and the nodes' zones keep the search
	// out of subtrees a range bound refuses.
	leaves bool
}

// newScan binds a scan to its query. An exact scan on an index with trees
// searches one — the index's, or narrow's list's — whenever the query vectors
// meet the floor test's preconditions; one that does not tests every owned
// row, since a list in leaf order would break the ascending ids admit relies
// on. On an index with no tree, narrow's list ascends and is visited whole.
func (ix *Index) newScan(k int, f Filter, vecs [][]float64, ids []int) *scan {
	q := &scan{
		ix: ix, k: k, vecs: vecs, ids: ids,
		qnorms: make([]float64, len(vecs)),
		skip:   newIDSet(ids, ix.Corpus.N()),
		rows:   ix.owned,
		filter: ix.cols.bind(f),
	}
	q.floorTest = ix.normsInRange
	for c, v := range vecs {
		q.qnorms[c] = mat.Norm2(v)
		if !normInRange(q.qnorms[c]) {
			q.floorTest = false
		}
	}
	trees := len(ix.tree.nodes) > 0
	if ix.pruner == nil && (q.floorTest || !trees) {
		if trees {
			q.tree = &ix.tree
		}
		q.narrow()
		if q.tree != nil {
			q.leaves, q.rows = true, q.tree.rows
		}
	}
	q.filtered = q.filter != ix.cols.bind(Filter{})
	return q
}

// narrow makes an exact scan take the candidate list of one equality field of
// its filter — the shorter list when it has two — instead of every owned row,
// with the list's cone tree when it has one, and leaves that field out of
// what admit tests row by row.
func (q *scan) narrow() {
	ix, cf := q.ix, &q.filter
	var lists *codeLists
	var field *uint32 // the code of cf the list stands for
	if cf.sic2 != anyCode {
		q.rows, lists, field = ix.bySIC2.of(cf.sic2), &ix.bySIC2, &cf.sic2
	}
	if cf.country != anyCode {
		if l := ix.byCountry.of(cf.country); field == nil || len(l) < len(q.rows) {
			q.rows, lists, field = l, &ix.byCountry, &cf.country
		}
	}
	if field == nil {
		return
	}
	q.tree, q.root = lists.treeOf(*field)
	*field = anyCode
}

// cosineSimilarity is Scorer.Score with the norms supplied: the similarity of
// query vector qv (norm qn) and candidate row (norm rn), bit for bit. It
// inlines into the candidate loop.
func cosineSimilarity(qv, row []float64, qn, rn float64) float64 {
	var dot float64
	for j, v := range qv[:len(row)] {
		dot += v * row[j]
	}
	if qn == 0 || rn == 0 {
		return 0
	}
	return dot / (qn * rn)
}

// selection is what a scan offers its candidates to: the heap, the tallies of
// the rows admit tested, and the blocks gone through.
type selection struct {
	heap               topkHeap[WhitespaceProspect]
	admitted, rejected uint64
	blocks             int
}

// floor is the similarity at the root of sel's heap once it is full, -Inf
// before: a row strictly below it cannot enter the heap.
func (sel *selection) floor() float64 {
	if len(sel.heap.m) == sel.heap.k {
		return sel.heap.m[0].Similarity
	}
	return math.Inf(-1)
}

// newSelection returns an empty selection for a scan of at most rows rows.
func (q *scan) newSelection(rows int) *selection {
	return &selection{heap: topkHeap[WhitespaceProspect]{
		k: q.k, better: ProspectBetter, m: make([]WhitespaceProspect, 0, min(q.k, rows)),
	}}
}

// A scan works through its candidates scanBlock at a time, and looks at its
// context before its first block and every ctxCheckBlocks blocks after.
const (
	scanBlock      = 256
	ctxCheckBlocks = 64
)

// run is the one driver of every scan, all of it on the calling goroutine. A
// scan.leaves scan is one search of its tree. A pruned scan visits the
// pruner's cells in turn; any other — an index with no tree, or query
// vectors the cone bound does not cover — is one visit over the scan's rows.
// Each offers its candidates to one selection. admitted and rejected count
// the rows admit tested, and a row the scan never reached counts neither way.
// annQueries and annCandidates are the endpoint's pruned-scan counters.
func (q *scan) run(ctx context.Context, sp *trace.Span, annQueries, annCandidates *obs.Counter) (best []WhitespaceProspect, admitted, rejected uint64, err error) {
	ix := q.ix
	var sel *selection
	switch {
	case q.leaves:
		root := q.tree.nodes[q.root]
		sel = q.newSelection(int(root.hi - root.lo))
		leaves, rows, err := q.search(ctx, sel)
		if err != nil {
			return nil, 0, 0, err
		}
		sp.AttrInt("leaves_visited", int64(leaves))
		sp.AttrInt("rows_visited", int64(rows))
	case ix.pruner != nil:
		cells := ix.pruner.Candidates(q.vecs)
		pool := 0
		for _, cell := range cells {
			pool += len(cell)
		}
		sp.Attr("mode", "ann")
		sp.AttrInt("cells_probed", int64(len(cells)))
		sp.AttrInt("pool", int64(pool))
		annQueries.Inc()
		annCandidates.Add(uint64(pool))
		annCellsProbed.Add(uint64(len(cells)))
		sel = q.newSelection(pool)
		for _, cell := range cells {
			if err := q.visit(ctx, sel, cell, 0, len(cell), ix.parts > 1); err != nil {
				return nil, 0, 0, err
			}
		}
	default:
		rows := len(q.rows)
		if q.rows == nil {
			rows = ix.Corpus.N()
		}
		sel = q.newSelection(rows)
		if err := q.visit(ctx, sel, nil, 0, rows, false); err != nil {
			return nil, 0, 0, err
		}
		sp.AttrInt("rows_visited", int64(rows))
	}
	return sel.heap.sorted(), sel.admitted, sel.rejected, nil
}

// visit is the candidate loop. It offers candidates ids[lo:hi] — or, when ids
// is nil, the scan's own positions lo..hi-1 (scan.rows) — to sel's heap, as
// the scan's earlier visits left it. foreign says ids may name companies of
// other partitions (a pruner's cell on a partitioned index), which are
// dropped; owned-list ranges need no such test. A context error ends the scan
// at the next look; sel's tallies are then partial.
//
// Each block goes through three stages: admit compacts the ids that are
// candidates at all into cand, reject drops those a multiplication shows to
// score below the heap's floor, and the survivors are scored and selected
// here. Two things must stay bit-compatible with the reference path
// (mat.CosineSim over Filter.Admits survivors, fully sorted): the score is
// dot / (qnorm * norms[i]) with norms[i] the very value Scorer.Score
// recomputes per call, and a candidate is dropped before the heap only when
// its similarity is strictly below the worst retained one — under
// ProspectBetter such a candidate can never displace it, while a tie is
// decided by id and so still goes through push. reject drops nothing else
// (DESIGN §13 has the proof), and no score is computed anywhere but here.
func (q *scan) visit(ctx context.Context, sel *selection, ids []int64, lo, hi int, foreign bool) error {
	ix := q.ix
	d := ix.Reps.Cols
	data, norms := ix.Reps.Data, ix.norms
	// Locals keep the loop's operands in registers across the push call.
	k, vecs, qnorms, qids := q.k, q.vecs, q.qnorms, q.ids
	h := &sel.heap
	floor := math.Inf(-1) // similarity of the worst retained candidate once h is full
	if len(h.m) == k {
		floor = h.m[0].Similarity
	}
	var cand [scanBlock]int
	for base := lo; base < hi; base += scanBlock {
		if sel.blocks++; sel.blocks%ctxCheckBlocks == 1 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		m := q.admit(&cand, ids, base, min(base+scanBlock, hi), foreign, sel)
		// The floor is stale by the end of the block, but only ever lower
		// than the live one, so the test only ever keeps more.
		if q.floorTest && floorInRange(floor) {
			m = q.reject(cand[:m], floor)
		}
		for _, i := range cand[:m] {
			row, rn := data[i*d:(i+1)*d], norms[i]
			// The nearest query vector wins, the first one on ties.
			sim, nearest := math.Inf(-1), -1
			for c, qv := range vecs {
				if s := cosineSimilarity(qv, row, qnorms[c], rn); s > sim {
					sim, nearest = s, qids[c]
				}
			}
			if sim < floor {
				continue
			}
			h.push(WhitespaceProspect{CompanyID: i, NearestClient: nearest, Similarity: sim})
			if len(h.m) == k {
				floor = h.m[0].Similarity
			}
		}
	}
	return nil
}

// admit is the first stage of a block: it resolves positions lo..hi-1 to
// company ids in cand — through ids (a cell), the scan's rows, or the
// identity — and drops the ones that are not candidates: companies of other
// partitions, the query's own ids, then rows the filter refuses. It returns
// how many are left at the front of cand. The filter tallies move here.
func (q *scan) admit(cand *[scanBlock]int, ids []int64, lo, hi int, foreign bool, sel *selection) int {
	m := hi - lo
	switch {
	case ids != nil:
		for j, id := range ids[lo:hi] {
			cand[j] = int(id)
		}
	case q.rows != nil:
		for j, id := range q.rows[lo:hi] {
			cand[j] = int(id)
		}
	default:
		for j := range cand[:m] {
			cand[j] = lo + j
		}
	}
	// Ids ascend: unless one of the scan's own lies between the block's ends,
	// none is in it.
	if foreign || cand[m-1] >= q.skip.lo && cand[0] <= q.skip.hi {
		n := m
		m = 0
		for _, i := range cand[:n] {
			if (!foreign || q.ix.owns(i)) && !q.skip.has(i) {
				cand[m] = i
				m++
			}
		}
	}
	if q.filtered {
		n := m
		m = 0
		for _, i := range cand[:n] {
			if q.filter.admits(i) {
				cand[m] = i
				m++
			}
		}
		sel.rejected += uint64(n - m)
	}
	sel.admitted += uint64(m)
	return m
}

// The floor test (reject) multiplies where the score divides, so it holds
// only while no product over- or underflows. These are the ranges its proof
// assumes, of the norms (a zero norm is also fine: that score is 0) and of the
// floor; outside them the stage is skipped. 1 - 2^-48 absorbs the roundings.
const (
	rejectNormMin, rejectNormMax   = 0x1p-500, 0x1p+500
	rejectFloorMin, rejectFloorMax = 0x1p-20, 0x1p+20
	rejectSlack                    = 1 - 0x1p-48
)

func normInRange(n float64) bool  { return n >= rejectNormMin && n <= rejectNormMax }
func floorInRange(f float64) bool { return f >= rejectFloorMin && f <= rejectFloorMax }

// reachesFloor is the floor test's predicate: with t = floor·rejectSlack·qn,
// a row of norm rn whose dot product with the query vector is dot may have a
// cosine similarity of floor or more. When it says no, the similarity is
// strictly below floor (DESIGN §13 has the proof, FuzzRejectBound hunts for a
// counter-example). The ranges above leave no way to a NaN; one would compare
// false and be dropped, as sim < floor drops the -Inf a NaN score leaves.
func reachesFloor(dot, t, rn float64) bool { return dot >= t*rn }

// reject is the second stage of a block, run once the heap is full (floor is
// the similarity at its root): it keeps, at the front of cand, the candidates
// that reachesFloor for some query vector, and returns their number. Everything it drops the selection would drop at sim < floor;
// what it keeps is scored there as if this stage did not exist.
func (q *scan) reject(cand []int, floor float64) int {
	data, norms := q.ix.Reps.Data, q.ix.norms
	f := floor * rejectSlack
	kept := 0
	for c, qv := range q.vecs {
		kept = keepAtFloor(cand, kept, data, norms, qv, f*q.qnorms[c])
	}
	return kept
}

// keepAtFloor is one query vector's pass over a block: cand[:kept] are kept
// already, and each candidate of cand[kept:] that reachesFloor for qv is
// swapped to the front to join them. It returns the new kept. The dot product
// is cosineSimilarity's — the same products summed in the same order — with
// the query vector held in registers at the paper's widths (2–4 topics).
func keepAtFloor(cand []int, kept int, data, norms, qv []float64, t float64) int {
	switch len(qv) {
	case 2:
		q0, q1 := qv[0], qv[1]
		for j := kept; j < len(cand); j++ {
			i := cand[j]
			r := data[2*i : 2*i+2 : 2*i+2]
			if reachesFloor(q0*r[0]+q1*r[1], t, norms[i]) {
				cand[j], cand[kept] = cand[kept], i
				kept++
			}
		}
	case 3:
		q0, q1, q2 := qv[0], qv[1], qv[2]
		for j := kept; j < len(cand); j++ {
			i := cand[j]
			r := data[3*i : 3*i+3 : 3*i+3]
			if reachesFloor(q0*r[0]+q1*r[1]+q2*r[2], t, norms[i]) {
				cand[j], cand[kept] = cand[kept], i
				kept++
			}
		}
	case 4:
		q0, q1, q2, q3 := qv[0], qv[1], qv[2], qv[3]
		for j := kept; j < len(cand); j++ {
			i := cand[j]
			r := data[4*i : 4*i+4 : 4*i+4]
			if reachesFloor(q0*r[0]+q1*r[1]+q2*r[2]+q3*r[3], t, norms[i]) {
				cand[j], cand[kept] = cand[kept], i
				kept++
			}
		}
	default:
		d := len(qv)
		for j := kept; j < len(cand); j++ {
			i := cand[j]
			row := data[i*d : (i+1)*d]
			var dot float64
			for jj, v := range qv[:len(row)] {
				dot += v * row[jj]
			}
			if reachesFloor(dot, t, norms[i]) {
				cand[j], cand[kept] = cand[kept], i
				kept++
			}
		}
	}
	return kept
}

// ProductRecommendation is one gap-based recommendation: a category the
// target lacks, scored by the similarity-weighted share of similar companies
// that own it ("the strength of the recommendation is measured via the
// strength of the company similarity").
type ProductRecommendation struct {
	Category int
	Name     string
	Strength float64 // in [0,1]: similarity-weighted ownership among peers
	Owners   int     // peers owning the category
}

// RecommendFromSimilar finds the target's top-k similar companies (after
// filtering) and recommends the products they own that the target lacks.
func (ix *Index) RecommendFromSimilar(id, k int, f Filter) ([]ProductRecommendation, error) {
	return ix.RecommendFromSimilarContext(context.Background(), id, k, f)
}

// RecommendFromSimilarContext is RecommendFromSimilar with a per-request
// context. Every successfully served query — including one whose answer is
// empty because the filter admits no peers — counts toward
// recommend_requests_total and observes its fan-out; failed queries count
// toward recommend_errors_total only.
func (ix *Index) RecommendFromSimilarContext(ctx context.Context, id, k int, f Filter) ([]ProductRecommendation, error) {
	ctx, sp := trace.Start(ctx, "core.recommend")
	sp.AttrInt("peers_wanted", int64(k))
	peers, err := ix.TopKContext(ctx, id, k, f)
	if err != nil {
		recErrors.Inc()
		sp.Error(err)
		sp.End()
		return nil, err
	}
	out := ix.recommendFromPeers(id, peers)
	sp.AttrInt("fanout", int64(len(out)))
	sp.End()
	recRequests.Inc()
	recFanout.Observe(float64(len(out)))
	return out, nil
}

// RecommendFromPeers scores gap-based recommendations for id over an
// explicitly supplied peer set — the shard-side half of two-phase sharded
// recommendation, where a router first scatter-gathers the global top-k
// peers (each shard scanning its partition) and then asks one shard to score
// the merged set. Given the peers the unpartitioned TopK would select, the
// result is byte-identical to RecommendFromSimilar. Served queries count
// toward recommend_requests_total exactly like the single-process path.
func (ix *Index) RecommendFromPeers(id int, peers []Match) ([]ProductRecommendation, error) {
	if id < 0 || id >= ix.Corpus.N() {
		recErrors.Inc()
		return nil, fmt.Errorf("core: company id %d outside [0,%d)", id, ix.Corpus.N())
	}
	for _, p := range peers {
		if p.CompanyID < 0 || p.CompanyID >= ix.Corpus.N() {
			recErrors.Inc()
			return nil, fmt.Errorf("core: peer id %d outside [0,%d)", p.CompanyID, ix.Corpus.N())
		}
	}
	out := ix.recommendFromPeers(id, peers)
	recRequests.Inc()
	recFanout.Observe(float64(len(out)))
	return out, nil
}

// recommendFromPeers scores the gap-based recommendations for id given its
// already-selected peer set. An empty peer set, or one whose similarities
// are all non-positive, yields no recommendations.
func (ix *Index) recommendFromPeers(id int, peers []Match) []ProductRecommendation {
	if len(peers) == 0 {
		return nil
	}
	target := &ix.Corpus.Companies[id]
	owned := make(map[int]bool)
	for _, a := range target.Acquisitions {
		owned[a.Category] = true
	}
	// Sparse accumulation: peers own a handful of categories, so a dense
	// corpus-vocabulary-sized tally (two O(M) slices allocated and zeroed per
	// query) wastes nearly all its work. The map holds only touched
	// categories; per-category weights still accumulate in peer order, and the
	// keys are walked in ascending category order like the dense loop did, so
	// the output is gob-byte-identical (pinned by
	// TestRecommendFromPeersSparseMatchesDense).
	type tally struct {
		weight float64
		owners int
	}
	gaps := make(map[int]tally, 16)
	var totalSim float64
	for _, p := range peers {
		sim := math.Max(p.Similarity, 0)
		totalSim += sim
		for _, a := range ix.Corpus.Companies[p.CompanyID].Acquisitions {
			if owned[a.Category] {
				continue
			}
			t := gaps[a.Category]
			t.weight += sim
			t.owners++
			gaps[a.Category] = t
		}
	}
	if totalSim == 0 {
		return nil
	}
	cats := make([]int, 0, len(gaps))
	for cat := range gaps {
		cats = append(cats, cat)
	}
	sort.Ints(cats)
	out := make([]ProductRecommendation, 0, len(cats))
	for _, cat := range cats {
		t := gaps[cat]
		out = append(out, ProductRecommendation{
			Category: cat,
			Name:     ix.Corpus.Catalog.Name(cat),
			Strength: t.weight / totalSim,
			Owners:   t.owners,
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Strength != out[b].Strength {
			return out[a].Strength > out[b].Strength
		}
		return out[a].Category < out[b].Category
	})
	return out
}

// Whitespace identifies prospect companies similar to an existing client
// set: for each non-client company passing the filter, the similarity to
// its nearest client. This is the paper's white-space motivation — "identify
// companies that are similar to existing clients and therefore have a high
// potential of becoming new customers".
type WhitespaceProspect struct {
	CompanyID     int
	NearestClient int
	Similarity    float64
}

// Whitespace ranks non-client companies by their similarity to the nearest
// client, returning the top k.
func (ix *Index) Whitespace(clientIDs []int, k int, f Filter) ([]WhitespaceProspect, error) {
	return ix.WhitespaceContext(context.Background(), clientIDs, k, f)
}

// maxClients bounds a white-space query's client list. The scan costs rows ×
// clients dot products: 1,024 clients over 100k four-topic rows is some
// 200 ms of one core, and an unbounded list (a 1 MiB body holds ~150k ids)
// could hold every core until the request's deadline.
const maxClients = 1024

// WhitespaceContext is Whitespace with a per-request context. Only queries
// that pass argument validation and complete the scan count toward
// whitespace_requests_total / whitespace_latency_seconds; rejected or
// cancelled queries count toward whitespace_errors_total.
func (ix *Index) WhitespaceContext(ctx context.Context, clientIDs []int, k int, f Filter) ([]WhitespaceProspect, error) {
	if k < 1 {
		wsErrors.Inc()
		return nil, fmt.Errorf("core: k must be positive, got %d", k)
	}
	if len(clientIDs) == 0 {
		wsErrors.Inc()
		return nil, fmt.Errorf("core: empty client set")
	}
	if len(clientIDs) > maxClients {
		wsErrors.Inc()
		return nil, fmt.Errorf("core: %d client ids, at most %d", len(clientIDs), maxClients)
	}
	clientRows := make([][]float64, len(clientIDs))
	for ci, id := range clientIDs {
		if id < 0 || id >= ix.Corpus.N() {
			wsErrors.Inc()
			return nil, fmt.Errorf("core: client id %d outside [0,%d)", id, ix.Corpus.N())
		}
		clientRows[ci] = ix.Reps.Row(id)
	}
	start := time.Now()
	ctx, sp := trace.Start(ctx, "core.whitespace")
	sp.AttrInt("clients", int64(len(clientIDs)))
	sp.AttrInt("k", int64(k))
	sp.AttrInt("candidates", int64(ix.OwnedCompanies()))
	// Per prospect the scan keeps the best-scoring client, the first one on
	// ties, and clients themselves are never prospects.
	q := ix.newScan(k, f, clientRows, clientIDs)
	out, _, _, err := q.run(ctx, sp, annWhitespaceQueries, annWhitespaceCandidates)
	if err != nil {
		wsErrors.Inc()
		sp.Error(err)
		sp.End()
		return nil, err
	}
	sp.End()
	wsRequests.Inc()
	wsLatency.Observe(time.Since(start).Seconds())
	return out, nil
}

// ProspectBetter is the total order for white-space prospects: similarity
// descending with deterministic id tie-breaks. Exported for scatter-gather
// merges, like MatchBetter.
func ProspectBetter(a, b WhitespaceProspect) bool {
	if a.Similarity != b.Similarity {
		return a.Similarity > b.Similarity
	}
	return a.CompanyID < b.CompanyID
}
