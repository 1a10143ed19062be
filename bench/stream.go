package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"strings"
)

// endpointNames fixes the order of the four query endpoints everywhere an
// index stands for one.
var endpointNames = []string{"similar", "recommend", "whitespace", "infer"}

// request is one generated query as it is written to the stream file and
// replayed against the server. The server sees only Method, Path and Body.
type request struct {
	Endpoint int    `json:"endpoint"` // index into endpointNames
	Method   string `json:"method"`
	Path     string `json:"path"`
	Body     string `json:"body,omitempty"`
	// K is the result cap the response is checked against; 0 leaves the
	// count unchecked (recommendations are not capped by k).
	K int `json:"k,omitempty"`
}

// corpusMeta is what the generator needs to know about the corpus: how many
// companies and categories it has and which filter values really occur.
type corpusMeta struct {
	Companies int      `json:"companies"`
	Vocab     int      `json:"vocab"`
	Countries []string `json:"countries"`
	SIC2s     []int    `json:"sic2s"`
}

// mixBlock is the endpoint mix .55 / .30 / .10 / .05 as one block of twenty
// requests. The stream is a sequence of such blocks, each shuffled, so every
// window of a run carries the same mix and two seeds differ in order and
// ids, not in how much work they ask for.
var mixBlock = func() []int {
	var b []int
	for ep, n := range []int{11, 6, 2, 1} {
		for i := 0; i < n; i++ {
			b = append(b, ep)
		}
	}
	return b
}()

var kChoices = []int{5, 10, 25}

// genStream generates n requests from the seed. zipf 0 draws company ids
// uniformly; zipf > 1 draws a popularity rank r with P(r) ∝ r^-zipf and maps
// it through a seeded permutation, so the hot companies are scattered over
// the id space. The same (meta, seed, zipf, n) gives the same stream.
func genStream(meta corpusMeta, seed int64, zipf float64, n int) []request {
	r := rand.New(rand.NewSource(seed))
	company := func() int { return r.Intn(meta.Companies) }
	if zipf > 0 {
		byRank := r.Perm(meta.Companies)
		z := rand.NewZipf(r, zipf, 1, uint64(meta.Companies-1))
		company = func() int { return byRank[z.Uint64()] }
	}
	// A quarter of the requests carry a filter, half of those on country and
	// half on industry, with values the corpus really has.
	filter := func() (key, val string) {
		if r.Float64() >= 0.25 {
			return "", ""
		}
		if r.Intn(2) == 0 {
			return "country", meta.Countries[r.Intn(len(meta.Countries))]
		}
		return "sic2", fmt.Sprint(meta.SIC2s[r.Intn(len(meta.SIC2s))])
	}
	query := func() string {
		if key, val := filter(); key != "" {
			return "&" + key + "=" + val
		}
		return ""
	}
	body := func(list string, ids []int, k int) string {
		var b strings.Builder
		fmt.Fprintf(&b, `{"%s":[`, list)
		for i, id := range ids {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprint(&b, id)
		}
		fmt.Fprintf(&b, `],"k":%d`, k)
		if key, val := filter(); key == "country" {
			fmt.Fprintf(&b, `,"filter":{"country":%q}`, val)
		} else if key == "sic2" {
			fmt.Fprintf(&b, `,"filter":{"sic2":%s}`, val)
		}
		b.WriteByte('}')
		return b.String()
	}

	out := make([]request, 0, n)
	block := append([]int(nil), mixBlock...)
	for len(out) < n {
		r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
		for _, ep := range block {
			if len(out) == n {
				break
			}
			k := kChoices[r.Intn(len(kChoices))]
			req := request{Endpoint: ep, Method: "GET"}
			switch endpointNames[ep] {
			case "similar":
				req.K = k
				req.Path = fmt.Sprintf("/v1/similar/%d?k=%d%s", company(), k, query())
			case "recommend":
				peers := 5 * (1 + r.Intn(5))
				req.Path = fmt.Sprintf("/v1/recommend/%d?peers=%d%s", company(), peers, query())
			case "whitespace":
				clients := make([]int, 2+r.Intn(4))
				for i := range clients {
					clients[i] = company()
				}
				req.Method, req.Path, req.K = "POST", "/v1/whitespace", k
				req.Body = body("clients", clients, k)
			case "infer":
				owned := make([]int, 1+r.Intn(4))
				for i := range owned {
					owned[i] = r.Intn(meta.Vocab)
				}
				req.Method, req.Path, req.K = "POST", "/v1/infer", k
				req.Body = body("owned", owned, k)
			}
			out = append(out, req)
		}
	}
	return out
}

// writeStream writes the stream as JSON lines and returns the SHA-256 of the
// file's bytes, which the report carries so two runs can be shown to have
// replayed the same requests.
func writeStream(path string, reqs []request) (string, error) {
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	w := bufio.NewWriter(io.MultiWriter(f, h))
	enc := json.NewEncoder(w)
	for i := range reqs {
		if err := enc.Encode(&reqs[i]); err != nil {
			return "", err
		}
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	if err := f.Close(); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// readStream reads a stream file back: the driver replays what is on disk,
// not what the generator held in memory.
func readStream(path string) ([]request, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var reqs []request
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var r request
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("reading stream %s: %w", path, err)
		}
		reqs = append(reqs, r)
	}
	return reqs, nil
}

func fileSHA256(path string) (string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(raw)
	return hex.EncodeToString(sum[:]), nil
}
