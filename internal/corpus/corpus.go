package corpus

import (
	"fmt"
	"math"

	"repro/internal/mat"
)

// Corpus is the model-facing dataset: a catalog plus aggregated companies.
type Corpus struct {
	Catalog   *Catalog
	Companies []Company
}

// New builds a corpus, sorting every company's acquisitions.
func New(catalog *Catalog, companies []Company) *Corpus {
	for i := range companies {
		companies[i].SortAcquisitions()
	}
	return &Corpus{Catalog: catalog, Companies: companies}
}

// N returns the number of companies.
func (c *Corpus) N() int { return len(c.Companies) }

// M returns the vocabulary size (number of product categories).
func (c *Corpus) M() int { return c.Catalog.Size() }

// Validate checks structural invariants: category ids in range, months in
// the observation period, no duplicate categories per company, sorted
// acquisitions. It returns the first violation found.
func (c *Corpus) Validate() error {
	m := c.M()
	for _, co := range c.Companies {
		seen := make(map[int]bool, len(co.Acquisitions))
		prev := Month(math.MinInt32)
		for _, a := range co.Acquisitions {
			if a.Category < 0 || a.Category >= m {
				return fmt.Errorf("corpus: company %d (%s) has category %d out of [0,%d)", co.ID, co.Name, a.Category, m)
			}
			if seen[a.Category] {
				return fmt.Errorf("corpus: company %d (%s) lists category %d twice", co.ID, co.Name, a.Category)
			}
			seen[a.Category] = true
			if a.First < prev {
				return fmt.Errorf("corpus: company %d (%s) acquisitions not sorted", co.ID, co.Name)
			}
			prev = a.First
		}
	}
	return nil
}

// BinaryMatrix returns the N×M binary company-product matrix A.
func (c *Corpus) BinaryMatrix() *mat.Matrix {
	out := mat.New(c.N(), c.M())
	for i := range c.Companies {
		row := out.Row(i)
		for _, a := range c.Companies[i].Acquisitions {
			row[a.Category] = 1
		}
	}
	return out
}

// DocumentFrequencies returns, for each category, the number of companies
// owning it.
func (c *Corpus) DocumentFrequencies() []int {
	df := make([]int, c.M())
	for i := range c.Companies {
		for _, a := range c.Companies[i].Acquisitions {
			df[a.Category]++
		}
	}
	return df
}

// IDF returns smoothed inverse document frequencies:
// idf(t) = ln((1+N)/(1+df(t))) + 1, the standard smooth variant that keeps
// weights positive even for categories owned by every company.
func (c *Corpus) IDF() []float64 {
	df := c.DocumentFrequencies()
	idf := make([]float64, len(df))
	n := float64(c.N())
	for t, d := range df {
		idf[t] = math.Log((1+n)/(1+float64(d))) + 1
	}
	return idf
}

// TFIDFMatrix returns the N×M TF-IDF matrix. Term frequency is binary
// (ownership), so each row is idf masked by ownership and L2-normalized —
// the "product frequency-inverse company frequency" the paper describes.
func (c *Corpus) TFIDFMatrix() *mat.Matrix {
	idf := c.IDF()
	out := mat.New(c.N(), c.M())
	for i := range c.Companies {
		row := out.Row(i)
		for _, a := range c.Companies[i].Acquisitions {
			row[a.Category] = idf[a.Category]
		}
		if n := mat.Norm2(row); n > 0 {
			mat.ScaleVec(1/n, row)
		}
	}
	return out
}

// TFIDFWeights converts the TF-IDF matrix into per-token weights for
// weighted LDA training, one per entry of Sets(), rescaled so each
// document's weights sum to its token count (keeping the effective corpus
// mass comparable to binary input, as gensim's tfidf-corpus treatment does).
// A document whose TF-IDF row is all zero gets unit weights.
func (c *Corpus) TFIDFWeights() [][]float64 {
	tfidf := c.TFIDFMatrix()
	sets := c.Sets()
	out := make([][]float64, len(sets))
	for d, doc := range sets {
		w := make([]float64, len(doc))
		var sum float64
		for i, cat := range doc {
			w[i] = tfidf.At(d, cat)
			sum += w[i]
		}
		if sum > 0 {
			scale := float64(len(doc)) / sum
			for i := range w {
				w[i] *= scale
			}
		} else {
			for i := range w {
				w[i] = 1
			}
		}
		out[d] = w
	}
	return out
}

// Sequences returns every company's time-ordered category sequence A^S.
// Companies with empty install bases yield empty sequences.
func (c *Corpus) Sequences() [][]int {
	out := make([][]int, c.N())
	for i := range c.Companies {
		out[i] = c.Companies[i].Sequence()
	}
	return out
}

// Sets returns every company's category set A (unordered, as a sorted
// id slice — category ids ascending). The sets are windows onto one backing
// array, each capped at its own length so an append to one cannot reach the
// next.
func (c *Corpus) Sets() [][]int {
	out := make([][]int, c.N())
	flat := make([]int, 0, c.TotalAcquisitions())
	for i := range c.Companies {
		start := len(flat)
		for _, a := range c.Companies[i].Acquisitions {
			flat = append(flat, a.Category)
		}
		set := flat[start:len(flat):len(flat)]
		// Acquisitions are time-sorted; re-sort by category id.
		for j := 1; j < len(set); j++ {
			for k := j; k > 0 && set[k] < set[k-1]; k-- {
				set[k], set[k-1] = set[k-1], set[k]
			}
		}
		out[i] = set
	}
	return out
}

// TotalAcquisitions returns the total number of (company, category) pairs,
// i.e. the corpus token count n used in perplexity denominators.
func (c *Corpus) TotalAcquisitions() int {
	var n int
	for i := range c.Companies {
		n += len(c.Companies[i].Acquisitions)
	}
	return n
}

// Density returns the fraction of ones in the binary matrix. The paper's
// corpus is dense relative to typical recommender data, which is why BPMF
// degenerates on it.
func (c *Corpus) Density() float64 {
	if c.N() == 0 || c.M() == 0 {
		return 0
	}
	return float64(c.TotalAcquisitions()) / float64(c.N()*c.M())
}

// Subset returns a corpus view containing the companies at the given
// indices (companies are copied; the catalog is shared).
func (c *Corpus) Subset(idx []int) *Corpus {
	companies := make([]Company, len(idx))
	for i, j := range idx {
		companies[i] = c.Companies[j]
	}
	return &Corpus{Catalog: c.Catalog, Companies: companies}
}

// TruncateBefore returns a copy of the corpus in which every company keeps
// only acquisitions strictly before month m. Companies left empty are kept
// (their history is empty). Used to build training data for each sliding
// recommendation window.
func (c *Corpus) TruncateBefore(m Month) *Corpus {
	companies := make([]Company, len(c.Companies))
	for i, co := range c.Companies {
		cc := co
		cc.Acquisitions = nil
		for _, a := range co.Acquisitions {
			if a.First < m {
				cc.Acquisitions = append(cc.Acquisitions, a)
			}
		}
		companies[i] = cc
	}
	return &Corpus{Catalog: c.Catalog, Companies: companies}
}
