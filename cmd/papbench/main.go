// Command papbench regenerates the paper's evaluation: Table 1 and
// Figures 3, 8, 9, 10, 11, 12, plus the §5.3 sensitivity studies and an
// optimization ablation.
//
// Usage:
//
//	papbench -experiment all                 # everything, default scale
//	papbench -experiment fig8 -scale 1 -size1 1048576 -size10 10485760
//	papbench -experiment table1 -benchmarks Snort,ClamAV
//	papbench -list
//
// Scale notes: -scale multiplies ruleset sizes (1.0 = paper-size automata);
// -size1/-size10 set the byte counts standing in for the paper's 1 MB and
// 10 MB streams. Defaults (0.25 / 128 KiB / 1 MiB) complete in minutes on a
// laptop while preserving the evaluation's shape.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pap/internal/experiments"
	"pap/internal/report"
	"pap/internal/workloads"
)

func main() {
	var (
		experiment = flag.String("experiment", "all",
			"one of: table1, fig3, fig8, fig9, fig10, fig11, fig12, switch, energy, ablation, dfa, all")
		scale      = flag.Float64("scale", 0.25, "ruleset scale in (0,1]; 1 = paper-size automata")
		size1      = flag.Int("size1", 128<<10, "bytes standing in for the paper's 1 MB stream")
		size10     = flag.Int("size10", 1<<20, "bytes standing in for the paper's 10 MB stream")
		seed       = flag.Int64("seed", 42, "workload/trace random seed")
		workers    = flag.Int("workers", 0, "simulator goroutines (0 = GOMAXPROCS)")
		benchmarks = flag.String("benchmarks", "", "comma-separated subset (default: all 19)")
		list       = flag.Bool("list", false, "list benchmarks and exit")
		reportPath = flag.String("report", "", "also write an HTML report with SVG figures to this path")
	)
	flag.Parse()

	if *list {
		for _, s := range workloads.All() {
			fmt.Printf("%-18s %-8s %s\n", s.Name, s.Suite, s.Description)
		}
		return
	}

	opts := experiments.Options{
		Scale:    *scale,
		Size1MB:  *size1,
		Size10MB: *size10,
		Seed:     *seed,
		Workers:  *workers,
	}
	if *workers == 0 {
		// Benchmarks prefetch concurrently; keep per-run parallelism low.
		opts.Workers = 2
	}
	if *benchmarks != "" {
		opts.Benchmarks = strings.Split(*benchmarks, ",")
	}
	env := experiments.NewEnv(opts)

	if err := run(os.Stdout, env, *experiment); err != nil {
		fmt.Fprintln(os.Stderr, "papbench:", err)
		os.Exit(1)
	}
	if *reportPath != "" {
		if err := writeReport(env, *reportPath); err != nil {
			fmt.Fprintln(os.Stderr, "papbench:", err)
			os.Exit(1)
		}
		fmt.Printf("wrote HTML report to %s\n", *reportPath)
	}
}

func writeReport(env *experiments.Env, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := report.Generate(f, env); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// run writes the named experiment's tables (or all of them) to w. The
// timing lines go to stderr, so two runs with the same options write
// identical bytes to w.
func run(w io.Writer, env *experiments.Env, experiment string) error {
	o := env.Options()
	fmt.Fprintf(w, "papbench: scale=%.2f size1=%d size10=%d seed=%d\n\n",
		o.Scale, o.Size1MB, o.Size10MB, o.Seed)

	steps := map[string]func() error{
		"table1": func() error {
			rows, err := env.Table1()
			if err != nil {
				return err
			}
			return experiments.WriteTable1(w, rows)
		},
		"fig3": func() error {
			rows, err := env.Fig3()
			if err != nil {
				return err
			}
			return experiments.WriteFig3(w, rows)
		},
		"fig8": func() error {
			for _, size := range []experiments.SizeClass{experiments.Size1MB, experiments.Size10MB} {
				sum, err := env.Fig8(size)
				if err != nil {
					return err
				}
				if err := experiments.WriteFig8(w, sum); err != nil {
					return err
				}
				fmt.Fprintln(w)
			}
			return nil
		},
		"fig9": func() error {
			rows, err := env.Fig9()
			if err != nil {
				return err
			}
			return experiments.WriteFig9(w, rows)
		},
		"fig10": func() error {
			rows, err := env.Fig10()
			if err != nil {
				return err
			}
			return experiments.WriteFig10(w, rows)
		},
		"fig11": func() error {
			rows, err := env.Fig11()
			if err != nil {
				return err
			}
			return experiments.WriteFig11(w, rows)
		},
		"fig12": func() error {
			rows, err := env.Fig12()
			if err != nil {
				return err
			}
			return experiments.WriteFig12(w, rows)
		},
		"switch": func() error {
			sum, err := env.SwitchSensitivity()
			if err != nil {
				return err
			}
			return experiments.WriteSwitch(w, sum)
		},
		"energy": func() error {
			sum, err := env.Energy()
			if err != nil {
				return err
			}
			return experiments.WriteEnergy(w, sum)
		},
		"dfa": func() error {
			rows, err := env.DFAComparison()
			if err != nil {
				return err
			}
			return experiments.WriteDFA(w, rows)
		},
		"ablation": func() error {
			rows, err := env.Ablation()
			if err != nil {
				return err
			}
			return experiments.WriteAblation(w, rows)
		},
	}

	// Warm the run cache concurrently for the experiments that need
	// end-to-end executions.
	prefetch := func(ranks []int, sizes []experiments.SizeClass) error {
		return timed("prefetch", func() error { return env.Prefetch(ranks, sizes, 0) })
	}
	if experiment != "all" {
		fn, ok := steps[experiment]
		if !ok {
			return fmt.Errorf("unknown experiment %q", experiment)
		}
		switch experiment {
		case "fig8":
			if err := prefetch([]int{1, 4},
				[]experiments.SizeClass{experiments.Size1MB, experiments.Size10MB}); err != nil {
				return err
			}
		case "fig9", "fig10", "fig11", "fig12", "energy":
			if err := prefetch([]int{1}, []experiments.SizeClass{experiments.Size1MB}); err != nil {
				return err
			}
		}
		return timed(experiment, fn)
	}
	if err := prefetch([]int{1, 4},
		[]experiments.SizeClass{experiments.Size1MB, experiments.Size10MB}); err != nil {
		return err
	}
	for _, name := range []string{"table1", "fig3", "fig8", "fig9", "fig10", "fig11", "fig12", "switch", "energy"} {
		if err := timed(name, steps[name]); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	return nil
}

func timed(name string, fn func() error) error {
	start := time.Now()
	if err := fn(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	fmt.Fprintf(os.Stderr, "[%s completed in %v]\n", name, time.Since(start).Round(time.Millisecond))
	return nil
}
