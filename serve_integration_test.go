package hiddenlayer

// End-to-end test for the ibserve process around its query surface: start
// the server on random ports, check /healthz, hot-reload it with queries in
// flight, read its counters on the debug listener, and drain it with SIGTERM.
// TestServeDifferential's binary rounds hold every endpoint's answers, across
// a reload, to a reference.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/proctest"
)

func TestServeIntegration(t *testing.T) {
	ibserve := tools.Path(t, "ibserve")
	corpusPath, modelPath := sharedFixture(t)

	// Start the server on random ports for both listeners.
	srv := proctest.Start(t, ibserve,
		"-corpus", corpusPath, "-model", modelPath,
		"-addr", "localhost:0", "-debug-addr", "localhost:0", "-grace", "10s")
	base := srv.Base

	// Health first: confirms the index shape before querying.
	var health struct {
		Status    string `json:"status"`
		Companies int    `json:"companies"`
		Topics    int    `json:"topics"`
	}
	resp, body := fetch(t, base+"/healthz", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz: status %d\n%s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &health); err != nil {
		t.Fatalf("/healthz: %v\n%s", err, body)
	}
	if health.Status != "ok" || health.Companies != 200 || health.Topics != 3 {
		t.Fatalf("/healthz: %+v", health)
	}

	// Hot reload with queries in flight: every concurrent request must get a
	// complete answer from either the old or the new generation.
	var wg sync.WaitGroup
	reqErrs := make(chan error, 8)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Get(fmt.Sprintf("%s/v1/similar/%d?k=3", base, g*10+i))
				if err != nil {
					reqErrs <- err
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					reqErrs <- fmt.Errorf("in-flight query during reload: status %d: %s", resp.StatusCode, b)
					return
				}
			}
		}(g)
	}
	var reload struct {
		Reloaded  bool `json:"reloaded"`
		Companies int  `json:"companies"`
	}
	resp, body = fetch(t, base+"/admin/reload", struct{}{})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/admin/reload: status %d\n%s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &reload); err != nil {
		t.Fatal(err)
	}
	if !reload.Reloaded || reload.Companies != 200 {
		t.Fatalf("reload response %+v", reload)
	}
	wg.Wait()
	close(reqErrs)
	for err := range reqErrs {
		t.Error(err)
	}

	// The debug listener counts what this test sent: the 40 in-flight
	// queries and the reload.
	metrics := srv.Metrics(t)
	for name, want := range map[string]float64{"serve_similar_requests_total": 40, "serve_reload_requests_total": 1} {
		if got := proctest.Metric(t, metrics, name); got != want {
			t.Errorf("%s = %v, want %v", name, got, want)
		}
	}

	// Graceful shutdown: SIGTERM drains and exits cleanly.
	if err := srv.Cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := srv.Wait(t, 15*time.Second); err != nil {
		t.Fatalf("server exited uncleanly: %v\nstderr:\n%s", err, srv.Stderr.String())
	}
	if !strings.Contains(srv.Stderr.String(), "drained and stopped") {
		t.Fatalf("no drain log on shutdown; stderr:\n%s", srv.Stderr.String())
	}
	// The live heap the boot's forced collection found, on a line of its own.
	if m := regexp.MustCompile(`boot heap heap_live_mb=([0-9.]+)\n`).FindStringSubmatch(srv.Stderr.String()); m == nil || m[1] == "0" {
		t.Fatalf("no positive heap_live_mb line after boot; stderr:\n%s", srv.Stderr.String())
	}
}

// TestSIGTERMAtAnnounce: a process that has announced its query address
// drains on SIGTERM. Each boot of ibserve and of ibrouter is sent SIGTERM the
// moment proctest.Start has read the line, and must log "drained and
// stopped" and exit 0: the shutdown handler is installed before either
// announcement, so Go's default SIGTERM action never kills a process that
// has announced.
func TestSIGTERMAtAnnounce(t *testing.T) {
	ibserve, ibrouter := tools.Path(t, "ibserve"), tools.Path(t, "ibrouter")
	corpusPath, modelPath := sharedFixture(t)
	serveArgs := []string{"-corpus", corpusPath, "-model", modelPath, "-addr", "localhost:0", "-quiet"}
	shard := strings.TrimPrefix(proctest.Start(t, ibserve, serveArgs...).Base, "http://")
	for _, tc := range []struct {
		bin  string
		args []string
	}{
		{ibserve, serveArgs},
		{ibrouter, []string{"-shards", shard, "-addr", "localhost:0", "-quiet"}},
	} {
		for boot := range 10 {
			p := proctest.Start(t, tc.bin, tc.args...)
			if err := p.Cmd.Process.Signal(syscall.SIGTERM); err != nil {
				t.Fatal(err)
			}
			if err := p.Wait(t, 15*time.Second); err != nil || !strings.Contains(p.Stderr.String(), "drained and stopped") {
				t.Fatalf("%s boot %d, SIGTERM at announce: exit %v, want 0 after a drain", filepath.Base(tc.bin), boot, err)
			}
		}
	}
}
