// Command kserved is the placement service daemon: an HTTP front end over
// internal/serve that queues placement jobs onto a worker pool with
// backpressure, per-job deadlines (expiry returns the best placement so
// far), cancellation, and a graceful SIGTERM drain that checkpoints
// in-flight jobs for later resumption.
//
//	kserved [-addr :8437] [-workers N] [-queue 16] [-deadline 0]
//	        [-checkpoint-dir DIR] [-grace 30s]
//
// Endpoints:
//
//	POST /jobs                submit {"netlist": "...", "deadline_ms", and any
//	                          place.Knobs key: "k", "max_iter", "cg_tol", ...}
//	GET  /jobs                list job statuses
//	GET  /jobs/{id}           one job's status (state, submitted/started/finished
//	                          timestamps, iterations, hpwl, stop reason, error)
//	GET  /jobs/{id}/result    placed netlist (text interchange format)
//	GET  /jobs/{id}/events    each transformation's place.IterStats, the
//	                          kplace -trace record (SSE; ?poll=1 long-poll)
//	POST /jobs/{id}/cancel    cancel a job
//	GET  /healthz             service health (queue depth, active workers, drain state)
//	GET  /metrics             Prometheus text metrics (with p50/p95/p99 gauges)
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/obsv"
	"repro/internal/serve"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kserved: ")

	var (
		addr     = flag.String("addr", ":8437", "HTTP listen address")
		workers  = flag.Int("workers", 0, "concurrent placements (0 = GOMAXPROCS)")
		queue    = flag.Int("queue", 16, "job queue depth; submissions beyond it get 429")
		deadline = flag.Duration("deadline", 0, "default per-job deadline (0 = none); expiry returns the best placement so far")
		ckptDir  = flag.String("checkpoint-dir", "", "write <job>.ckpt snapshots for jobs drained by shutdown")
		grace    = flag.Duration("grace", 30*time.Second, "shutdown drain budget")
	)
	flag.Parse()

	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			log.Fatal(err)
		}
	}
	reg := obsv.NewRegistry()
	s := serve.New(serve.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		DefaultDeadline: *deadline,
		CheckpointDir:   *ckptDir,
		Metrics:         reg,
		Now:             time.Now,
	})

	hs := &http.Server{Addr: *addr, Handler: s.Handler()}
	errc := make(chan error, 1)
	// The accept loop lives as long as the daemon; its error arrives on errc.
	go func() { errc <- hs.ListenAndServe() }()
	h := s.Health()
	fmt.Printf("serving on %s (%d workers, queue %d)\n", *addr, h.Workers, *queue)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}
	stop()
	fmt.Println("shutting down: draining jobs")

	dctx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := hs.Shutdown(dctx); err != nil {
		log.Printf("http shutdown: %v", err)
	}
	if err := s.Shutdown(dctx); err != nil {
		log.Printf("drain incomplete: %v", err)
		os.Exit(1)
	}
	for _, st := range s.Jobs() {
		if st.Checkpoint != "" {
			fmt.Printf("checkpointed %s at iteration %d: %s\n", st.ID, st.Iterations, st.Checkpoint)
		}
	}
	if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Printf("http server: %v", err)
	}
	fmt.Println("drained cleanly")
}
