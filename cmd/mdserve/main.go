// Command mdserve exposes the permcell simulation engines as an HTTP
// service: submit runs, stream their step records live, pause/resume them
// via checkpoints, and scrape Prometheus metrics for the whole fleet.
// Workers advance every run one step at a time, so a pause or a cancel
// lands after the step in flight.
//
//	mdserve -addr :8080 -data /var/lib/mdserve -workers 4
//
// Once listening it prints "mdserve: listening on <addr> (data <dir>)" to
// stdout, with the bound address (so -addr 127.0.0.1:0 reports its port).
// SIGINT or SIGTERM stops accepting requests, cancels the runs and waits up
// to -drain for the worker pool; the exit code is 0 after a complete drain,
// 1 on a listen failure or an expired drain budget, and 2 on a usage error,
// which includes a negative value for any numeric flag.
//
// See the README's "Serving runs" section for a walkthrough.
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

	"permcell/internal/serve"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is mdserve behind a testable seam: it parses args, serves until
// SIGINT or SIGTERM, drains, and returns the process exit code. The
// listening line goes to stdout, every other diagnostic to stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mdserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	logger := log.New(stderr, "mdserve: ", log.LstdFlags)
	addr := fs.String("addr", ":8080", "listen address")
	data := fs.String("data", "", "data directory for per-run checkpoints (default: a temp dir)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	queue := fs.Int("queue", 0, "admission queue depth (0 = 64)")
	maxParticles := fs.Int("max-particles", 0, "per-run cap on particles and on cells (0 = 200000)")
	retention := fs.Duration("retention", 0, "reap terminal runs (and their checkpoints) this long after they finish (0 = keep forever)")
	drain := fs.Duration("drain", 30*time.Second, "graceful shutdown budget")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := func(format string, a ...any) int {
		fmt.Fprintf(stderr, "mdserve: "+format+"\n", a...)
		return 2
	}
	if fs.NArg() > 0 {
		return usage("unexpected argument %q", fs.Arg(0))
	}
	// Every numeric flag's zero means a default; a negative value would
	// silently mean the same (or, for -drain, no drain at all), so it is
	// refused rather than guessed at.
	for _, f := range []struct {
		name string
		neg  bool
	}{
		{"workers", *workers < 0},
		{"queue", *queue < 0},
		{"max-particles", *maxParticles < 0},
		{"retention", *retention < 0},
		{"drain", *drain < 0},
	} {
		if f.neg {
			return usage("-%s must not be negative", f.name)
		}
	}

	dir := *data
	if dir == "" {
		d, err := os.MkdirTemp("", "mdserve-*")
		if err != nil {
			logger.Print(err)
			return 1
		}
		dir = d
		logger.Printf("no -data given, using %s", dir)
	}
	srv, err := serve.New(serve.Config{
		Dir:          dir,
		Workers:      *workers,
		QueueDepth:   *queue,
		MaxParticles: *maxParticles,
		Retention:    *retention,
	})
	if err != nil {
		logger.Print(err)
		return 1
	}
	// shutdown stops accepting HTTP first (when serving), then cancels the
	// runs and waits for the worker pool, all within one -drain budget.
	// Paused runs keep their checkpoints on disk.
	shutdown := func(hs *http.Server) int {
		ctx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		code := 0
		if hs != nil {
			if err := hs.Shutdown(ctx); err != nil {
				logger.Printf("http shutdown: %v", err)
				code = 1
			}
		}
		if err := srv.Shutdown(ctx); err != nil {
			logger.Printf("service shutdown: %v", err)
			code = 1
		}
		return code
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Print(err)
		shutdown(nil)
		return 1
	}
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	defer signal.Stop(sig)

	hs := &http.Server{Handler: srv.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	fmt.Fprintf(stdout, "mdserve: listening on %s (data %s)\n", ln.Addr(), dir)

	select {
	case s := <-sig:
		logger.Printf("%v: draining (budget %v)", s, *drain)
		return shutdown(hs)
	case err := <-served:
		if !errors.Is(err, http.ErrServerClosed) {
			logger.Print(err)
		}
		shutdown(nil)
		return 1
	}
}
