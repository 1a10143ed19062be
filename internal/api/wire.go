// Package api is the single owner of what ibserve and ibrouter must agree on
// to be one service: the wire schema of the paper's Section 6 query API
// (similar / recommend / white-space / infer), the mapping from an error to an
// HTTP status, and the request shell every query endpoint runs through. A
// shard and the router over it marshal the same types, so a healthy fan-out
// is byte-identical to an unsharded server by construction rather than by two
// struct definitions happening to agree; testdata/ pins the bytes.
package api

import "repro/internal/core"

// Degraded is the tail of every query response: set only by a router that
// answered without some shards, and omitted entirely otherwise — so a shard's
// answer and a healthy fan-out's merged answer marshal to the same bytes.
type Degraded struct {
	Partial       bool  `json:"partial,omitempty"`
	MissingShards []int `json:"missing_shards,omitempty"`
}

// Match is one similar company.
type Match struct {
	CompanyID  int     `json:"company_id"`
	Name       string  `json:"name"`
	Similarity float64 `json:"similarity"`
}

// SimilarResponse is the GET /v1/similar/{id} body.
type SimilarResponse struct {
	CompanyID int     `json:"company_id"`
	Name      string  `json:"name"`
	K         int     `json:"k"`
	Matches   []Match `json:"matches"`
	Degraded
}

// Recommendation is one gap-based product recommendation.
type Recommendation struct {
	Category int     `json:"category"`
	Name     string  `json:"name"`
	Strength float64 `json:"strength"`
	Owners   int     `json:"owners"`
}

// RecommendResponse is the GET /v1/recommend/{id} and POST
// /internal/recommend body.
type RecommendResponse struct {
	CompanyID       int              `json:"company_id"`
	Name            string           `json:"name"`
	Peers           int              `json:"peers"`
	Recommendations []Recommendation `json:"recommendations"`
	Degraded
}

// Prospect is one white-space prospect.
type Prospect struct {
	CompanyID     int     `json:"company_id"`
	Name          string  `json:"name"`
	NearestClient int     `json:"nearest_client"`
	Similarity    float64 `json:"similarity"`
}

// Filter mirrors core.Filter in the JSON body shape of the POST endpoints;
// zero values mean "any", as in core.
type Filter struct {
	SIC2         int     `json:"sic2,omitempty"`
	Country      string  `json:"country,omitempty"`
	MinEmployees int     `json:"min_employees,omitempty"`
	MaxEmployees int     `json:"max_employees,omitempty"`
	MinRevenueM  float64 `json:"min_revenue_m,omitempty"`
	MaxRevenueM  float64 `json:"max_revenue_m,omitempty"`
}

// Core converts the wire filter to the index's.
func (p Filter) Core() core.Filter {
	return core.Filter{
		SIC2: p.SIC2, Country: p.Country,
		MinEmployees: p.MinEmployees, MaxEmployees: p.MaxEmployees,
		MinRevenueM: p.MinRevenueM, MaxRevenueM: p.MaxRevenueM,
	}
}

// WhitespaceRequest is the POST /v1/whitespace body.
type WhitespaceRequest struct {
	Clients []int  `json:"clients"`
	K       int    `json:"k,omitempty"`
	Filter  Filter `json:"filter"`
}

// WhitespaceResponse is the POST /v1/whitespace answer.
type WhitespaceResponse struct {
	K         int        `json:"k"`
	Prospects []Prospect `json:"prospects"`
	Degraded
}

// InferRequest is the POST /v1/infer body.
type InferRequest struct {
	Owned  []int  `json:"owned"`
	K      int    `json:"k,omitempty"`
	Filter Filter `json:"filter"`
}

// InferResponse is the POST /v1/infer answer.
type InferResponse struct {
	Theta   []float64 `json:"theta"`
	K       int       `json:"k"`
	Matches []Match   `json:"matches"`
	Degraded
}

// InternalRecommendRequest is the body of POST /internal/recommend — the
// shard-side half of two-phase sharded recommendation. A scatter-gather
// router first merges the global top-k peer set from every shard's
// /v1/similar answer, then posts it here so one shard (every shard holds the
// full corpus and representations — only the candidate scans are
// partitioned) scores the gap-based recommendations over the exact peers the
// unsharded path would have used. Peers is the request's peer-count
// parameter, echoed back so the response is byte-identical to
// /v1/recommend/{id} on an unsharded server.
type InternalRecommendRequest struct {
	CompanyID int         `json:"company_id"`
	Peers     int         `json:"peers"`
	Matches   []PeerMatch `json:"matches"`
}

// PeerMatch is one merged peer of an InternalRecommendRequest.
type PeerMatch struct {
	CompanyID  int     `json:"company_id"`
	Similarity float64 `json:"similarity"`
}

// MatchBetter and ProspectBetter are core's total orders lifted to the wire
// types, so a router merging decoded shard answers ranks exactly as the scans
// that produced them did.
func MatchBetter(a, b Match) bool {
	return core.MatchBetter(
		core.Match{CompanyID: a.CompanyID, Similarity: a.Similarity},
		core.Match{CompanyID: b.CompanyID, Similarity: b.Similarity})
}

func ProspectBetter(a, b Prospect) bool {
	return core.ProspectBetter(
		core.WhitespaceProspect{CompanyID: a.CompanyID, NearestClient: a.NearestClient, Similarity: a.Similarity},
		core.WhitespaceProspect{CompanyID: b.CompanyID, NearestClient: b.NearestClient, Similarity: b.Similarity})
}
