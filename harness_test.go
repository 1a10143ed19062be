package hiddenlayer

// What the root package's end-to-end tests share beyond internal/proctest's
// process harness: one go build links all seven cmd/ binaries on first use;
// the 200-company corpus and its LDA-3 model are made once and shared
// read-only; fetch is the one HTTP helper.

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"testing"

	"repro/internal/proctest"
)

// tools holds every cmd/ binary once the first test has asked for one. Its
// directory also holds the shared fixture.
var tools = proctest.Build("repro/cmd/...")

func TestMain(m *testing.M) { proctest.Main(m) }

// writeModel writes the corpus of `ibgen -companies <companies> -seed 9` and
// its `ibtrain -model lda -topics=3 -seed 1` model into dir.
func writeModel(t *testing.T, dir string, companies int) (corpusPath, modelPath string) {
	t.Helper()
	corpusPath = filepath.Join(dir, "corpus.jsonl")
	modelPath = filepath.Join(dir, "lda.gob")
	proctest.Run(t, tools.Path(t, "ibgen"), "-companies", strconv.Itoa(companies), "-seed", "9", "-out", corpusPath)
	proctest.Run(t, tools.Path(t, "ibtrain"), "-model", "lda", "-topics=3", "-corpus", corpusPath, "-out", modelPath, "-seed", "1")
	return corpusPath, modelPath
}

var fixture struct {
	mu            sync.Mutex
	corpus, model string
}

// sharedFixture returns writeModel's 200-company corpus and model, made once
// per test binary. Tests share the files: one that rewrites a file works on
// its own copy. A caller whose making fails leaves no fixture, so the next
// caller tries again and fails with its own output.
func sharedFixture(t *testing.T) (corpusPath, modelPath string) {
	t.Helper()
	fixture.mu.Lock()
	defer fixture.mu.Unlock()
	if fixture.model == "" {
		dir, err := os.MkdirTemp(filepath.Dir(tools.Path(t, "ibgen")), "fixture-")
		if err != nil {
			t.Fatal(err)
		}
		corpusPath, modelPath = writeModel(t, dir, 200)
		fixture.corpus, fixture.model = corpusPath, modelPath
	}
	return fixture.corpus, fixture.model
}

// fetch GETs url when payload is nil and POSTs payload as JSON otherwise. It
// returns the response, whose body it has read and closed, and that body.
func fetch(t *testing.T, url string, payload any) (*http.Response, []byte) {
	t.Helper()
	var resp *http.Response
	var err error
	if payload == nil {
		resp, err = http.Get(url)
	} else {
		raw, merr := json.Marshal(payload)
		if merr != nil {
			t.Fatal(merr)
		}
		resp, err = http.Post(url, "application/json", bytes.NewReader(raw))
	}
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}
