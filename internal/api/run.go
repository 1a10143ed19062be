package api

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obs"
)

// SLOFlags are the -slo* flags ibserve and ibrouter share.
type SLOFlags struct {
	On           bool
	Window       time.Duration
	Availability float64
	Latency      string
}

// BindSLOFlags registers -slo (with the binary's own help line), -slo-window,
// -slo-availability and -slo-latency on fs.
func BindSLOFlags(fs *flag.FlagSet, sloHelp string) *SLOFlags {
	f := &SLOFlags{}
	fs.BoolVar(&f.On, "slo", false, sloHelp)
	fs.DurationVar(&f.Window, "slo-window", DefaultSLOWindow, "rolling SLO evaluation window")
	fs.Float64Var(&f.Availability, "slo-availability", DefaultSLOAvailability,
		"availability objective (fraction of requests without a server error)")
	fs.StringVar(&f.Latency, "slo-latency", "",
		`per-endpoint p99 latency objectives, e.g. "default=100ms,similar=50ms"`)
	return f
}

// Config returns the objectives the parsed flags select, or nil when -slo is
// off.
func (f *SLOFlags) Config() (*SLOConfig, error) {
	if !f.On {
		return nil, nil
	}
	objectives, err := ParseLatencyObjectives(f.Latency)
	if err != nil {
		return nil, err
	}
	return &SLOConfig{Window: f.Window, Availability: f.Availability, Latency: objectives}, nil
}

// RunConfig is one serving process as Run sees it.
type RunConfig struct {
	Addr    string
	Handler http.Handler
	// DebugAddr, when non-empty, starts the obs debug listener with
	// DebugRoutes mounted beside /metrics and pprof.
	DebugAddr   string
	DebugRoutes []obs.Route
	// SetReady flips the process's /readyz; Run calls it with false when the
	// shutdown signal arrives.
	SetReady func(bool)
	// DrainWait is how long to keep serving with /readyz at 503 before
	// draining, so routers and load balancers stop sending first; Grace is the
	// connection-drain budget after that.
	DrainWait, Grace time.Duration
	Logger           *slog.Logger
}

// Run is the process lifecycle of ibserve and ibrouter: catch SIGINT/SIGTERM
// first (one sent on an announcement must drain), start the debug listener,
// listen, announce both addresses on stdout (scripts, tests and the benchmark
// scrape "debug on " / "serving on "), serve until the signal, flip /readyz,
// wait DrainWait, drain connections within Grace, and return once drained.
func Run(cfg RunConfig) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if cfg.DebugAddr != "" {
		dbg, err := obs.StartDebug(cfg.DebugAddr, obs.Default(), cfg.DebugRoutes...)
		if err != nil {
			return err
		}
		defer dbg.Close()
		fmt.Printf("debug on %s\n", dbg.Addr())
		cfg.Logger.Info("debug server listening", "addr", dbg.Addr())
	}

	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		return err
	}
	fmt.Printf("serving on %s\n", ln.Addr())
	cfg.Logger.Info("listening", "addr", ln.Addr().String())

	// Hardened listener settings: slow-header and idle connections cannot pin
	// resources forever, and oversized headers are rejected at the HTTP layer.
	httpSrv := &http.Server{
		Handler:           cfg.Handler,
		ReadHeaderTimeout: 5 * time.Second,
		IdleTimeout:       120 * time.Second,
		MaxHeaderBytes:    1 << 20,
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		<-ctx.Done()
		cfg.SetReady(false)
		cfg.Logger.Info("shutting down", "drain_wait", cfg.DrainWait.String(), "grace", cfg.Grace.String())
		if cfg.DrainWait > 0 {
			time.Sleep(cfg.DrainWait)
		}
		shutdownCtx, cancel := context.WithTimeout(context.Background(), cfg.Grace)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			cfg.Logger.Error("shutdown: " + err.Error())
		}
	}()
	if err := httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	<-done
	cfg.Logger.Info("drained and stopped")
	return nil
}
