// Command kplace places a netlist with any of the implemented engines.
//
//	kplace -in circuit.nl -out placed.nl [-engine kraftwerk|gordian|anneal]
//	       [-k 0.2] [-timing] [-legalize] [-plot]
//
// With -gen cells:nets:rows a synthetic circuit is generated instead of
// reading -in.
//
// Interruption (kraftwerk engine): -timeout bounds the run's wall time and
// Ctrl-C / SIGTERM stops it early; either way the best placement so far is
// kept and written. -checkpoint FILE snapshots the interrupted iteration
// state, and -resume FILE continues a snapshotted run bit-compatibly.
//
// Observability:
//
//	-trace run.jsonl     stream one JSON line per placement transformation
//	-metrics             dump the metrics registry (Prometheus text) on exit
//	-cpuprofile cpu.pb   write a runtime/pprof CPU profile
//	-memprofile mem.pb   write a heap profile on exit
//	-http :6060          debug server with /metrics and /debug/pprof/
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/anneal"
	"repro/internal/density"
	"repro/internal/fft"
	"repro/internal/gordian"
	"repro/internal/legalize"
	"repro/internal/netgen"
	"repro/internal/netlist"
	"repro/internal/obsv"
	"repro/internal/place"
	"repro/internal/sparse"
	"repro/internal/timing"
	"repro/internal/visual"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kplace: ")

	var cfg place.Config // the kraftwerk engine's knobs: one flag each
	cfg.RegisterFlags(flag.CommandLine)
	var (
		in     = flag.String("in", "", "input netlist file (text interchange format)")
		aux    = flag.String("bookshelf", "", "input Bookshelf .aux file instead of -in")
		out    = flag.String("out", "", "output netlist file with placement (default: stdout summary only)")
		gen    = flag.String("gen", "", "generate a synthetic circuit instead: cells:nets:rows")
		seed   = flag.Int64("seed", 1, "seed for generation and stochastic engines")
		engine = flag.String("engine", "kraftwerk", "placement engine: kraftwerk, gordian, anneal")
		doTime = flag.Bool("timing", false, "timing-driven placement (kraftwerk engine)")
		legal  = flag.Bool("legalize", true, "run legalization/detailed placement afterwards")
		plot   = flag.Bool("plot", false, "print an ASCII plot of the result")

		timeout = flag.Duration("timeout", 0, "wall-time budget for the kraftwerk run (0 = none); on expiry the best placement so far is kept")
		ckpt    = flag.String("checkpoint", "", "write the iteration state here if the kraftwerk run is interrupted (-timeout or Ctrl-C)")
		resume  = flag.String("resume", "", "resume a kraftwerk run from a -checkpoint snapshot instead of starting fresh")

		tracePath = flag.String("trace", "", "write a JSONL run trace (one record per transformation)")
		metrics   = flag.Bool("metrics", false, "dump the metrics registry as Prometheus text on exit")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		httpAddr  = flag.String("http", "", "serve /metrics and /debug/pprof/ on this address (e.g. :6060)")
	)
	flag.Parse()

	// Observability sinks. Spans are always on (the cost is a handful of
	// clock reads per pass); the registry only when something consumes it.
	spans := obsv.NewSpans()
	var reg *obsv.Registry
	if *metrics || *httpAddr != "" {
		reg = obsv.NewRegistry()
		sparse.EnableMetrics(reg)
		density.EnableMetrics(reg)
		fft.EnableMetrics(reg)
	}
	var trace *obsv.TraceWriter
	if *tracePath != "" {
		var err error
		trace, err = obsv.OpenTrace(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
	}
	if *httpAddr != "" {
		http.Handle("/metrics", reg)
		//lint:ignore parpolicy background debug server: deliberately fire-and-forget, it lives for the whole process
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				log.Printf("debug server: %v", err)
			}
		}()
		fmt.Printf("debug server on %s (/metrics, /debug/pprof/)\n", *httpAddr)
	}
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			log.Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	nl, err := load(*in, *aux, *gen, *seed)
	if err != nil {
		log.Fatal(err)
	}
	st := netlist.ComputeStats(nl)
	fmt.Println(st)

	start := time.Now()
	switch *engine {
	case "kraftwerk":
		cfg.Spans, cfg.Metrics = spans, reg
		if trace != nil {
			// The trace file opens with a self-describing meta record:
			// design size, seed, config hash — the context a bare stream
			// of iteration stats loses the moment the command line is gone.
			_ = trace.Write(place.NewRunMeta(nl, cfg, *seed, start))
			cfg.OnIteration = func(s place.IterStats) { _ = trace.Write(s) }
		}
		if *doTime {
			params := timing.Calibrated(nl)
			res, err := timing.PlaceDriven(nl, cfg, params, 0)
			if err != nil {
				log.Fatal(err)
			}
			printRunSummary(res.Place)
			fmt.Printf("timing: %.3g ns -> %.3g ns (lower bound %.3g ns, exploitation %.0f%%)\n",
				res.Before*1e9, res.After*1e9, res.LowerBound*1e9, 100*res.Exploitation())
			timing.WriteReport(os.Stdout, nl, params, timing.NewAnalyzer(nl, params).Analyze())
		} else {
			res, err := runKraftwerk(nl, cfg, *timeout, *resume, *ckpt)
			if err != nil {
				log.Fatal(err)
			}
			printRunSummary(res)
		}
	case "gordian":
		res, err := gordian.Place(nl, gordian.Config{Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("gordian: %d levels, %d regions\n", res.Levels, res.Regions)
	case "anneal":
		res, err := anneal.Place(nl, anneal.Config{Seed: *seed})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("anneal: %d stages, %d/%d moves accepted\n",
			res.Stages, res.Accepted, res.Moves)
	default:
		log.Fatalf("unknown engine %q", *engine)
	}

	if *legal && len(nl.Region.Rows) > 0 {
		lres, err := legalize.Legalize(nl, legalize.Options{Spans: spans})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("legalized: %d improving swaps, max displacement %.2f\n",
			lres.Swaps, lres.MaxDisp)
	}
	fmt.Printf("HPWL %.1f units, overlap %.2f, %.2fs\n",
		nl.HPWL(), nl.OverlapArea(), time.Since(start).Seconds())

	if len(spans.Snapshot()) > 0 {
		fmt.Println("\nphase breakdown:")
		spans.WriteTable(os.Stdout)
	}

	if *plot {
		visual.Plot(os.Stdout, nl, 100, 24)
	}
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := netlist.Write(f, nl); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %s\n", *out)
	}

	if err := trace.Close(); err != nil {
		log.Fatalf("trace: %v", err)
	}
	if *tracePath != "" {
		fmt.Printf("wrote trace %s\n", *tracePath)
	}
	if *metrics {
		fmt.Println("\nmetrics:")
		if err := reg.WritePrometheus(os.Stdout); err != nil {
			log.Fatalf("metrics: %v", err)
		}
	}
	if *memProf != "" {
		f, err := os.Create(*memProf)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Fatal(err)
		}
	}
}

// runKraftwerk runs (or resumes) global placement under a wall-time
// budget and Ctrl-C/SIGTERM cancellation. An interrupted run keeps the
// best placement so far in nl; if ckptPath is set its iteration state is
// also snapshotted for a later -resume.
func runKraftwerk(nl *netlist.Netlist, cfg place.Config, timeout time.Duration, resumePath, ckptPath string) (place.Result, error) {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}

	var p *place.Placer
	if resumePath != "" {
		f, err := os.Open(resumePath)
		if err != nil {
			return place.Result{}, err
		}
		ck, err := place.DecodeCheckpoint(f)
		f.Close()
		if err != nil {
			return place.Result{}, fmt.Errorf("%s: %v", resumePath, err)
		}
		if p, err = place.Resume(nl, cfg, ck); err != nil {
			return place.Result{}, fmt.Errorf("%s: %v", resumePath, err)
		}
		fmt.Printf("resuming from %s at iteration %d\n", resumePath, ck.Iter)
	} else {
		p = place.New(nl, cfg)
	}

	res, err := p.Run(ctx)
	if err != nil {
		return res, err
	}
	interrupted := res.StopReason == place.StopCancelled || res.StopReason == place.StopDeadline
	if interrupted && ckptPath != "" {
		f, err := os.Create(ckptPath)
		if err != nil {
			return res, err
		}
		if err := p.Checkpoint().Encode(f); err != nil {
			f.Close()
			return res, err
		}
		if err := f.Close(); err != nil {
			return res, err
		}
		fmt.Printf("interrupted (%s): checkpointed iteration %d to %s; continue with -resume %s\n",
			res.StopReason, res.Iterations, ckptPath, ckptPath)
	}
	return res, nil
}

// printRunSummary reports how and why a Kraftwerk run ended, with the
// per-phase time breakdown of the global placement loop; "other" is the
// step time no phase covers (force scaling, capping, clamping).
func printRunSummary(res place.Result) {
	fmt.Printf("global: %d iterations, stopped on %s, overflow %.3f, %.2fs\n",
		res.Iterations, res.StopReason, res.Overflow, res.Runtime.Seconds())
	step := res.Phases.TStep
	if step <= 0 {
		return
	}
	line := func(name string, d time.Duration) {
		fmt.Printf("  %-12s %10.3fs  %5.1f%%\n", name, d.Seconds(), 100*d.Seconds()/step.Seconds())
	}
	fmt.Printf("  per-phase breakdown of %.2fs in transformations:\n", step.Seconds())
	other := step
	res.Phases.Each(func(k string, d time.Duration) {
		if k != "step" && d > 0 {
			line(k, d)
			other -= d
		}
	})
	line("other", other)
}

func load(in, aux, gen string, seed int64) (*netlist.Netlist, error) {
	switch {
	case aux != "":
		return netlist.LoadBookshelf(aux)
	case gen != "":
		parts := strings.Split(gen, ":")
		if len(parts) != 3 {
			return nil, fmt.Errorf("-gen wants cells:nets:rows, got %q", gen)
		}
		cells, err1 := strconv.Atoi(parts[0])
		nets, err2 := strconv.Atoi(parts[1])
		rows, err3 := strconv.Atoi(parts[2])
		if err1 != nil || err2 != nil || err3 != nil {
			return nil, fmt.Errorf("-gen wants integers, got %q", gen)
		}
		return netgen.Generate(netgen.Config{
			Name: "generated", Cells: cells, Nets: nets, Rows: rows, Seed: seed,
		}), nil
	case in != "":
		f, err := os.Open(in)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return netlist.Read(f)
	default:
		return nil, fmt.Errorf("need -in FILE, -bookshelf FILE.aux, or -gen cells:nets:rows")
	}
}
