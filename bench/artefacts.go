package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/lda"
	"repro/internal/mat"
	"repro/internal/rng"
)

// serveSeed is ibserve's default -seed: the in-process reference index must
// infer the representations from the same stream the server does.
const serveSeed = 1

// corpusSeed is fixed: every run of every seed serves the same companies, so
// that runs differ in the requests they send and in nothing else. It also
// picks the recall probes.
const corpusSeed = 1

const (
	probeCount = 200 // fixed recall probes
	probeK     = 10
)

// refMatch is one entry of a reference answer.
type refMatch struct {
	ID    int     `json:"company_id"`
	Score float64 `json:"similarity"`
}

// probeRef is one recall probe and its exact answer.
type probeRef struct {
	ID      int        `json:"id"`
	Matches []refMatch `json:"matches"`
}

// artefactMeta describes the cached corpus and model. Everything in it is a
// function of the stamp and the corpus size, so it is made once per checkout
// and shared by every workload and every seed.
type artefactMeta struct {
	// Stamp is a hash over the four binaries: a change to the code that makes
	// or serves the artefacts makes them afresh.
	Stamp        string     `json:"stamp"`
	GenS         float64    `json:"gen_s"`   // wall time of the ibgen process
	TrainS       float64    `json:"train_s"` // wall time of the ibtrain process
	CorpusSHA256 string     `json:"corpus_sha256"`
	ModelSHA256  string     `json:"model_sha256"`
	Corpus       corpusMeta `json:"corpus"`
	Probes       []probeRef `json:"probes"` // exact top-10 of the fixed probe companies
	Cmdlines     [][]string `json:"cmdlines"`
}

type artefacts struct {
	corpusPath, modelPath string
	meta                  artefactMeta
}

// binaryStamp hashes the built binaries.
func binaryStamp(binDir string) (string, error) {
	h := sha256.New()
	for _, b := range binaries {
		raw, err := os.ReadFile(filepath.Join(binDir, b))
		if err != nil {
			return "", err
		}
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// ensureArtefacts returns the corpus, the LDA model and their description,
// making them with ibgen and ibtrain when the cache under dir is missing or
// was made by other binaries.
func ensureArtefacts(ctx context.Context, binDir, dir string, companies int) (*artefacts, error) {
	stamp, err := binaryStamp(binDir)
	if err != nil {
		return nil, err
	}
	a := &artefacts{
		corpusPath: filepath.Join(dir, "corpus.jsonl"),
		modelPath:  filepath.Join(dir, "lda.gob"),
	}
	metaPath := filepath.Join(dir, "meta.json")
	if raw, err := os.ReadFile(metaPath); err == nil {
		if json.Unmarshal(raw, &a.meta) == nil && a.meta.Stamp == stamp && a.meta.Corpus.Companies == companies {
			return a, nil
		}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	a.meta = artefactMeta{Stamp: stamp}
	run := func(bin string, args ...string) (float64, error) {
		cmd := exec.CommandContext(ctx, filepath.Join(binDir, bin), args...)
		cmd.Dir = dir
		a.meta.Cmdlines = append(a.meta.Cmdlines, append([]string{bin}, args...))
		start := time.Now()
		if out, err := cmd.CombinedOutput(); err != nil {
			return 0, fmt.Errorf("%s: %w\n%s", bin, err, tail(string(out), 600))
		}
		return time.Since(start).Seconds(), nil
	}
	if a.meta.GenS, err = run("ibgen", "-companies", fmt.Sprint(companies), "-seed", fmt.Sprint(corpusSeed),
		"-out", "corpus.jsonl"); err != nil {
		return nil, err
	}
	if a.meta.TrainS, err = run("ibtrain", "-model", "lda", "-topics", "4", "-corpus", "corpus.jsonl",
		"-out", "lda.gob"); err != nil {
		return nil, err
	}
	if a.meta.CorpusSHA256, err = fileSHA256(a.corpusPath); err != nil {
		return nil, err
	}
	if a.meta.ModelSHA256, err = fileSHA256(a.modelPath); err != nil {
		return nil, err
	}

	li, err := loadIndex(a.corpusPath, a.modelPath)
	if err != nil {
		return nil, err
	}
	defer li.close()
	a.meta.Corpus = describeCorpus(li.corpus)
	r := rand.New(rand.NewSource(corpusSeed))
	for _, id := range r.Perm(companies)[:probeCount] {
		matches, err := li.index.TopK(id, probeK, core.Filter{})
		if err != nil {
			return nil, fmt.Errorf("reference top-k of company %d: %w", id, err)
		}
		ref := probeRef{ID: id}
		for _, m := range matches {
			ref.Matches = append(ref.Matches, refMatch{ID: m.CompanyID, Score: m.Similarity})
		}
		a.meta.Probes = append(a.meta.Probes, ref)
	}
	raw, err := json.Marshal(&a.meta)
	if err != nil {
		return nil, err
	}
	// The description is written last and by rename: a run that dies half way
	// leaves no meta.json, and the next one starts over.
	tmp := metaPath + ".tmp"
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return nil, err
	}
	return a, os.Rename(tmp, metaPath)
}

// describeCorpus collects the distinct filter values in sorted order.
func describeCorpus(c *corpus.Corpus) corpusMeta {
	countries, sic2s := map[string]bool{}, map[int]bool{}
	for i := range c.Companies {
		if v := c.Companies[i].Country; v != "" {
			countries[v] = true
		}
		if v := c.Companies[i].SIC2; v != 0 {
			sic2s[v] = true
		}
	}
	m := corpusMeta{Companies: c.N(), Vocab: c.M()}
	for v := range countries {
		m.Countries = append(m.Countries, v)
	}
	for v := range sic2s {
		m.SIC2s = append(m.SIC2s, v)
	}
	sort.Strings(m.Countries)
	sort.Ints(m.SIC2s)
	return m
}

// loadTimings are the steps of ibserve's boot, timed one by one in this
// process.
type loadTimings struct {
	CorpusLoadS      float64 `json:"corpus_load_s"`
	LDALoadMs        float64 `json:"lda_load_ms"`
	RepresentationsS float64 `json:"representations_s"`
	NewIndexMs       float64 `json:"newindex_ms"`
}

// loadedIndex is the exact index built the way cmd/ibserve builds it.
type loadedIndex struct {
	corpus  *corpus.Corpus
	model   *lda.Model
	reps    *mat.Matrix
	index   *core.Index
	timings loadTimings
	close   func()
}

// loadIndex repeats ibserve's buildState: load the corpus and the model,
// infer every company's representation from rng.New(serveSeed), build the
// cosine index.
func loadIndex(corpusPath, modelPath string) (*loadedIndex, error) {
	li := &loadedIndex{}
	t := time.Now()
	c, err := corpus.LoadFile(corpusPath)
	if err != nil {
		return nil, fmt.Errorf("loading corpus: %w", err)
	}
	li.timings.CorpusLoadS = time.Since(t).Seconds()
	t = time.Now()
	m, closeModel, err := lda.LoadFile(modelPath)
	if err != nil {
		return nil, fmt.Errorf("loading model: %w", err)
	}
	li.timings.LDALoadMs = ms(time.Since(t))
	li.close = func() { _ = closeModel() }
	t = time.Now()
	reps := m.Representations(c.Sets(), rng.New(serveSeed))
	li.timings.RepresentationsS = time.Since(t).Seconds()
	t = time.Now()
	ix, err := core.NewIndex(c, reps, core.Cosine)
	if err != nil {
		li.close()
		return nil, err
	}
	li.timings.NewIndexMs = ms(time.Since(t))
	li.corpus, li.model, li.reps, li.index = c, m, reps, ix
	return li, nil
}
