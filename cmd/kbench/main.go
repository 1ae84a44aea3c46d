// Command kbench regenerates the paper's evaluation tables and experiments.
//
//	kbench -table 1            # Table 1 (wire length + CPU, all engines)
//	kbench -table 2            # Table 2 (relative comparison; runs Table 1)
//	kbench -table 3            # Table 3 (timing results)
//	kbench -table 4            # Table 4 (exploitation; runs Table 3)
//	kbench -exp fast           # §6.1 fast-vs-standard mode experiment
//	kbench -exp tradeoff       # §5 timing/area tradeoff curve
//	kbench -exp step           # place.Step phase breakdown (E10)
//	kbench -exp serve          # serving-layer throughput/latency (E12)
//	kbench -all                # everything
//
// The suite is scaled by -scale (default 0.12) so a full run finishes in
// minutes; -scale 1 reproduces the published circuit sizes (hours).
//
// Observability:
//
//	-trace run.jsonl     stream one JSON line per Kraftwerk transformation,
//	                     labeled with the circuit and engine
//	-metrics             dump the metrics registry (Prometheus text) on exit
//	-cpuprofile cpu.pb   write a runtime/pprof CPU profile
//	-memprofile mem.pb   write a heap profile on exit
//	-http :6060          debug server with /metrics and /debug/pprof/
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/bench"
	"repro/internal/density"
	"repro/internal/fft"
	"repro/internal/obsv"
	"repro/internal/sparse"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("kbench: ")

	var (
		table    = flag.Int("table", 0, "paper table to regenerate (1-4)")
		exp      = flag.String("exp", "", "experiment: fast, tradeoff, ablation, scaling, step, serve")
		stepOut  = flag.String("step-out", "", "write the step experiment's JSON document to this file (e.g. BENCH_step.json)")
		stepIter = flag.Int("step-iter", 60, "max placement transformations per step-experiment run")
		stepChk  = flag.String("step-check", "", "compare the step experiment's hot run against this baseline BENCH_step.json and exit nonzero on regression")
		stepChkN = flag.Int("step-check-cells", 10000, "cell count of the row the -step-check gate compares")
		stepTol  = flag.Float64("step-check-tol", 0.20, "allowed fractional hot step-time regression for -step-check")
		srvJobs  = flag.Int("serve-jobs", 8, "job count for the serve experiment")
		srvCells = flag.Int("serve-cells", 2000, "cells per job for the serve experiment")
		srvIter  = flag.Int("serve-iter", 40, "max placement transformations per serve-experiment job")
		srvWork  = flag.Int("serve-workers", 0, "worker count for the serve experiment's concurrent pass (0 = GOMAXPROCS)")
		srvOut   = flag.String("serve-out", "", "write the serve experiment's JSON document to this file (e.g. BENCH_serve.json)")
		sizes    = flag.String("sizes", "", "comma-separated cell counts for the step experiment (default 2000,10000)")
		all      = flag.Bool("all", false, "run every table and experiment")
		scale    = flag.Float64("scale", 0.12, "suite scale factor (1.0 = published sizes)")
		seed     = flag.Int64("seed", 1998, "generation seed")
		circuits = flag.String("circuits", "", "comma-separated circuit filter (e.g. fract,struct)")
		quiet    = flag.Bool("q", false, "suppress per-engine progress lines")

		tracePath = flag.String("trace", "", "write a JSONL run trace (one record per transformation)")
		metrics   = flag.Bool("metrics", false, "dump the metrics registry as Prometheus text on exit")
		cpuProf   = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf   = flag.String("memprofile", "", "write a heap profile to this file on exit")
		httpAddr  = flag.String("http", "", "serve /metrics and /debug/pprof/ on this address (e.g. :6060)")
	)
	flag.Parse()

	opts := bench.Options{Scale: *scale, Seed: *seed}
	if *circuits != "" {
		opts.Circuits = splitComma(*circuits)
	}
	if !*quiet {
		opts.Progress = os.Stderr
	}

	if *metrics || *httpAddr != "" {
		opts.Metrics = obsv.NewRegistry()
		sparse.EnableMetrics(opts.Metrics)
		density.EnableMetrics(opts.Metrics)
		fft.EnableMetrics(opts.Metrics)
	}
	if *tracePath != "" {
		trace, err := obsv.OpenTrace(*tracePath)
		if err != nil {
			log.Fatal(err)
		}
		opts.Trace = trace
	}
	if *httpAddr != "" {
		http.Handle("/metrics", opts.Metrics)
		//lint:ignore parpolicy background debug server: deliberately fire-and-forget, it lives for the whole process
		go func() {
			if err := http.ListenAndServe(*httpAddr, nil); err != nil {
				log.Printf("debug server: %v", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "debug server on %s (/metrics, /debug/pprof/)\n", *httpAddr)
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

	ran := false
	if *all || *table == 1 || *table == 2 {
		rows := bench.RunTable1(opts)
		if *all || *table == 1 {
			bench.PrintTable1(os.Stdout, rows)
			fmt.Println()
		}
		if *all || *table == 2 {
			bench.PrintTable2(os.Stdout, bench.Table2From(rows))
			fmt.Println()
		}
		ran = true
	}
	if *all || *table == 3 || *table == 4 {
		rows := bench.RunTable3(opts)
		if *all || *table == 3 {
			bench.PrintTable3(os.Stdout, rows)
			fmt.Println()
		}
		if *all || *table == 4 {
			bench.PrintTable4(os.Stdout, bench.Table4From(rows))
			fmt.Println()
		}
		ran = true
	}
	if *all || *exp == "fast" {
		bench.PrintFast(os.Stdout, bench.RunFastVsStandard(opts))
		fmt.Println()
		ran = true
	}
	if *all || *exp == "ablation" {
		circuit := "primary2"
		if len(opts.Circuits) > 0 {
			circuit = opts.Circuits[0]
		}
		rows, err := bench.RunAblation(opts, circuit)
		if err != nil {
			log.Fatal(err)
		}
		bench.PrintAblation(os.Stdout, circuit, rows)
		fmt.Println()
		ran = true
	}
	if *all || *exp == "scaling" {
		bench.PrintScaling(os.Stdout, bench.RunScaling(opts, nil))
		fmt.Println()
		ran = true
	}
	if *all || *exp == "step" {
		var ns []int
		for _, s := range splitComma(*sizes) {
			var n int
			if _, err := fmt.Sscanf(s, "%d", &n); err != nil || n <= 0 {
				log.Fatalf("bad -sizes entry %q", s)
			}
			ns = append(ns, n)
		}
		b := bench.RunStepBench(opts, ns, *stepIter)
		bench.PrintStepBench(os.Stdout, b)
		fmt.Println()
		if *stepChk != "" {
			f, err := os.Open(*stepChk)
			if err != nil {
				log.Fatal(err)
			}
			baseline, err := bench.ReadStepBench(f)
			f.Close()
			if err != nil {
				log.Fatal(err)
			}
			if err := bench.CheckStepRegression(b, baseline, *stepChkN, *stepTol); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "step-check ok: hot %d-cell step time within +%.0f%% of %s\n",
				*stepChkN, *stepTol*100, *stepChk)
		}
		if *stepOut != "" {
			f, err := os.Create(*stepOut)
			if err != nil {
				log.Fatal(err)
			}
			if err := bench.WriteStepBench(f, b); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *stepOut)
		}
		ran = true
	}
	if *all || *exp == "serve" {
		b := bench.RunServeBench(opts, *srvJobs, *srvCells, *srvIter, *srvWork)
		bench.PrintServeBench(os.Stdout, b)
		fmt.Println()
		if *srvOut != "" {
			f, err := os.Create(*srvOut)
			if err != nil {
				log.Fatal(err)
			}
			if err := bench.WriteServeBench(f, b); err != nil {
				log.Fatal(err)
			}
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *srvOut)
		}
		ran = true
	}
	if *all || *exp == "tradeoff" {
		circuit := "struct"
		if len(opts.Circuits) > 0 {
			circuit = opts.Circuits[0]
		}
		res, err := bench.RunTradeoff(opts, circuit, 0.15)
		if err != nil {
			log.Fatal(err)
		}
		bench.PrintTradeoff(os.Stdout, res)
		fmt.Println()
		ran = true
	}
	if !ran {
		flag.Usage()
		os.Exit(2)
	}

	if err := opts.Trace.Close(); err != nil {
		log.Fatalf("trace: %v", err)
	}
	if *tracePath != "" {
		fmt.Fprintf(os.Stderr, "wrote trace %s\n", *tracePath)
	}
	if *metrics {
		fmt.Println("\nmetrics:")
		if err := opts.Metrics.WritePrometheus(os.Stdout); err != nil {
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

func splitComma(s string) []string {
	var out []string
	start := 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == ',' {
			if i > start {
				out = append(out, s[start:i])
			}
			start = i + 1
		}
	}
	return out
}
