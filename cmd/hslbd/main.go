// Command hslbd serves HSLB solves over HTTP/JSON: a cached front-end for
// the fragment-allocation solver, with one bounded admission gate.
//
//	hslbd -addr :8080 -cache-size 4096 -max-inflight 8
//
//	curl -s localhost:8080/v1/solve -d '{
//	  "totalNodes": 64,
//	  "tasks": [
//	    {"name": "frag-a", "params": {"a": 120, "b": 0.4, "c": 0.9, "d": 1.5}},
//	    {"name": "frag-b", "params": {"a": 300, "b": 0.1, "c": 1.1, "d": 2.0}}
//	  ]
//	}'
//
// See DESIGN.md "Service architecture" for the endpoint and caching
// contract.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/serve"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "hslbd:", err)
		os.Exit(1)
	}
}

// parseFlags turns hslbd's command line into its listen address and
// server options.
func parseFlags(args []string) (addr string, opts serve.ServerOptions, err error) {
	fs := flag.NewFlagSet("hslbd", flag.ContinueOnError)
	opts = serve.DefaultOptions()
	fs.StringVar(&addr, "addr", ":8080", "listen address")
	fs.IntVar(&opts.CacheSize, "cache-size", opts.CacheSize, "solution cache capacity (entries)")
	fs.StringVar(&opts.SnapshotPath, "snapshot", "",
		"cache snapshot path: warm the cache from it on boot, write it back on graceful shutdown")
	fs.BoolVar(&opts.DisableCache, "disable-cache", false, "turn the solution cache off")
	fs.IntVar(&opts.MaxInFlight, "max-inflight", opts.MaxInFlight, "max concurrently running solves")
	fs.DurationVar(&opts.QueueTimeout, "queue-timeout", opts.QueueTimeout, "max wait for a solve slot before 429")
	fs.DurationVar(&opts.DefaultDeadline, "default-deadline", 0, "solve deadline for requests that set none (0 = unlimited)")
	fs.DurationVar(&opts.MaxDeadline, "max-deadline", 0, "cap on per-request deadlines (0 = uncapped)")
	err = fs.Parse(args)
	return addr, opts, err
}

func run(args []string) error {
	addr, opts, err := parseFlags(args)
	if err != nil {
		return err
	}
	srv, err := serve.New(opts)
	if err != nil {
		return err
	}
	defer srv.Close()
	if opts.SnapshotPath != "" {
		loaded, dropped, err := srv.LoadSnapshotFile()
		if err != nil {
			return fmt.Errorf("loading snapshot: %w", err)
		}
		fmt.Fprintf(os.Stderr, "hslbd: snapshot warmup: %d entries loaded, %d dropped\n", loaded, dropped)
	}

	hs := &http.Server{
		Addr:              addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	fmt.Fprintln(os.Stderr, "hslbd: listening on", ln.Addr())

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	// Graceful drain: stop accepting, let in-flight requests finish, then
	// cancel any solves that outlive the drain window.
	shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := hs.Shutdown(shCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	if opts.SnapshotPath != "" {
		if err := srv.SaveSnapshotFile(); err != nil {
			return fmt.Errorf("saving snapshot: %w", err)
		}
	}
	return nil
}
