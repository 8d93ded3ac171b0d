// Command uopsd is the long-running characterization service: an HTTP server
// over the characterization engine and the persistent result store, serving
// JSON/XML characterization results to many concurrent callers.
//
// Usage:
//
//	uopsd [-addr localhost:8631] [-rate N -burst M] [-drain 10s]
//	      [-header-timeout 10s] [-idle-timeout 2m] [-v] [engine flags]
//
// The engine flags (-j, -cache, -store-*, -backend, -fleet) are shared by
// every command; see engine.RegisterFlags. Unlike the one-shot commands,
// uopsd defaults to -store-durable=true.
//
// Endpoints:
//
//	GET  /healthz                       liveness probe
//	GET  /metrics                       Prometheus-style counter exposition
//	GET  /v1/backends                   the measurement-backend registry + serving identity
//	POST /v1/measure                    one kernel at its copy counts (fleet-worker endpoint)
//	GET  /v1/stats                      engine + coalescing + request counters
//	GET  /v1/arch/{gen}                 full characterization (?only=..., ?quick=1, ?format=xml)
//	GET  /v1/arch/{gen}/variant/{name}  a single instruction variant
//
// The server owns one engine: concurrent identical queries are coalesced
// into a single measurement run, and with -cache the run's results persist,
// so repeated and subsequent queries are warm store hits (and conditional
// GETs with If-None-Match answer 304 without touching the engine). Every
// request is answered synchronously. -rate enables a token-bucket rate
// limiter (requests per second, -burst deep), off by default. Generation
// names in URLs are case-insensitive with separators ignored
// ("sandy-bridge"). SIGINT/SIGTERM shut the server down gracefully: the
// listener drains, in-flight requests get the -drain deadline, and any
// still-running measurement — including a run whose requesters all hung up
// — is cancelled and quiesced before the process exits. A client still
// waiting on a run cancelled that way is answered 503.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"uopsinfo/internal/engine"
	"uopsinfo/internal/service"
)

// errUsage signals that the flag package already printed the diagnostic and
// usage text, so main only needs to set the exit status.
var errUsage = errors.New("usage")

func main() {
	log.SetFlags(0)
	log.SetPrefix("uopsd: ")
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, log.Default(), nil); err != nil {
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		log.Fatal(err)
	}
}

// run parses the arguments and serves until ctx is cancelled. It is
// separated from main so the end-to-end tests can drive the real server
// without spawning a process; ready, if non-nil, is called with the bound
// address once the listener is up.
func run(ctx context.Context, args []string, stdout io.Writer, logger *log.Logger, ready func(addr string)) error {
	fs := flag.NewFlagSet("uopsd", flag.ContinueOnError)
	addr := fs.String("addr", "localhost:8631", "listen address (host:port; port 0 picks an ephemeral port)")
	ef := engine.RegisterFlags(fs, true)
	headerTimeout := fs.Duration("header-timeout", 10*time.Second, "deadline for reading a request's headers")
	idleTimeout := fs.Duration("idle-timeout", 2*time.Minute, "how long an idle keep-alive connection is kept open")
	rate := fs.Float64("rate", 0, "rate limit in requests per second across all endpoints except /healthz and /metrics (0 disables limiting)")
	burst := fs.Int("burst", 0, "rate-limiter burst depth (default: ceil of -rate)")
	drain := fs.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests before running measurements are cancelled")
	verbose := fs.Bool("v", false, "log persistent-store diagnostics: save errors, quarantined entries and degradation")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return fmt.Errorf("%w: %v", errUsage, err)
	}

	ecfg, err := ef.Config()
	if err != nil {
		return err
	}

	// baseCtx is the lifetime of the engine's measurement runs: cancelled
	// only after the HTTP side has drained, so that shutdown actually
	// quiesces runs that no request is waiting on anymore.
	baseCtx, baseCancel := context.WithCancel(context.Background())
	defer baseCancel()

	ecfg.BaseContext = baseCtx
	if *verbose {
		ecfg.Log = logger.Printf
	}
	eng, err := engine.New(ecfg)
	if err != nil {
		return err
	}
	svc, err := service.New(service.Config{
		Engine:    eng,
		Log:       logger.Printf,
		RateLimit: *rate,
		RateBurst: *burst,
	})
	if err != nil {
		return err
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	logger.Printf("backend %s version %s, %d workers, cache %q",
		eng.Backend().Name(), eng.Backend().Version(), eng.Workers(), ecfg.CacheDir)
	fmt.Fprintf(stdout, "listening on http://%s\n", ln.Addr())
	if ready != nil {
		ready(ln.Addr().String())
	}

	// A cold full-generation request takes seconds (0.7–3.6 s at -j 2 over
	// the durable store on 2 vCPUs, 3.0–11.5 s as the front of a 2-worker
	// loopback fleet on the same CPUs), longer on a slow disk or a loaded
	// fleet, so there is no overall write timeout. Header reads and idle
	// keep-alives are bounded, so trickling or abandoned connections cannot
	// pin goroutines and file descriptors forever.
	srv := &http.Server{
		Handler:           svc,
		ReadHeaderTimeout: *headerTimeout,
		IdleTimeout:       *idleTimeout,
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	// Shutdown in dependency order: drain the HTTP side (listener + in-flight
	// handlers), then cancel the engine's base context — aborting anything
	// still measuring, in particular a run whose requesters all hung up — and
	// wait for the engine to quiesce. Without the cancel+drain step the
	// process would exit while a measurement goroutine still burns CPU (or,
	// under a test harness, leak it).
	logger.Printf("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	shutErr := srv.Shutdown(shutCtx)
	baseCancel()
	quiesceCtx, qcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer qcancel()
	if err := eng.Drain(quiesceCtx); err != nil {
		return errors.Join(shutErr, err)
	}
	if errors.Is(shutErr, context.DeadlineExceeded) {
		// -drain ran out with clients still waiting on runs. Their runs are
		// cancelled now, so their handlers answer 503; let them write it.
		// Reaching this deadline is the designed path, not a failure.
		return srv.Shutdown(quiesceCtx)
	}
	return shutErr
}
