// Command paprun matches a ruleset against an input file, sequentially or
// with the PAP parallelization, and reports matches plus modelled AP
// statistics.
//
// Usage:
//
//	paprun -rules rules.txt -input data.bin              # sequential
//	paprun -rules rules.txt -input data.bin -parallel -ranks 4
//	paprun -rules rules.txt -input data.bin -engine bit  # force a backend
//	paprun -rules rules.txt -input data.bin -scored      # per-match scores
//	echo 'GET /admin' | paprun -rules rules.txt -parallel
//
// The rules file contains one pattern per line; blank lines and lines
// starting with '#' are ignored.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"pap"
)

func main() {
	var (
		rulesPath = flag.String("rules", "", "pattern file (one regex per line)")
		anmlPath  = flag.String("anml", "", "ANML XML automaton (alternative to -rules)")
		mnrlPath  = flag.String("mnrl", "", "MNRL JSON automaton (alternative to -rules)")
		inputPath = flag.String("input", "-", "input file ('-' = stdin)")
		parallel  = flag.Bool("parallel", false, "use the PAP parallelization")
		ranks     = flag.Int("ranks", 1, "modelled AP ranks (1..4)")
		compress  = flag.Bool("compress", true, "apply common-prefix compression")
		quiet     = flag.Bool("quiet", false, "suppress per-match output")
		maxPrint  = flag.Int("max-print", 20, "print at most this many matches")
		engName   = flag.String("engine", "auto",
			"execution backend: "+strings.Join(pap.EngineKindNames(), ", "))
		scored = flag.Bool("scored", false,
			"track per-transition max-plus scores and report each match's score plus the best")
	)
	flag.Parse()

	engine, err := pap.ParseEngineKind(*engName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "paprun:", err)
		os.Exit(1)
	}
	if err := run(*rulesPath, *anmlPath, *mnrlPath, *inputPath, *parallel, *ranks, *compress, *quiet, *maxPrint, engine, *scored); err != nil {
		fmt.Fprintln(os.Stderr, "paprun:", err)
		os.Exit(1)
	}
}

func run(rulesPath, anmlPath, mnrlPath, inputPath string, parallel bool, ranks int, compress, quiet bool, maxPrint int, engine pap.EngineKind, scored bool) error {
	var a *pap.Automaton
	sources := 0
	for _, p := range []string{rulesPath, anmlPath, mnrlPath} {
		if p != "" {
			sources++
		}
	}
	if sources > 1 {
		return fmt.Errorf("-rules, -anml and -mnrl are mutually exclusive")
	}
	switch {
	case rulesPath != "":
		patterns, err := readRules(rulesPath)
		if err != nil {
			return err
		}
		a, err = pap.Compile(rulesPath, patterns)
		if err != nil {
			return err
		}
	case anmlPath != "":
		var err error
		a, err = loadANML(anmlPath)
		if err != nil {
			return err
		}
	case mnrlPath != "":
		var err error
		a, err = loadMNRL(mnrlPath)
		if err != nil {
			return err
		}
	default:
		return fmt.Errorf("-rules, -anml or -mnrl is required")
	}
	if compress {
		a = a.Compress()
	}
	st := a.Stats()
	fmt.Printf("automaton: %d states, %d transitions, %d components, %d reporting\n",
		st.States, st.Transitions, st.ConnectedComponents, st.ReportingStates)

	input, err := readInput(inputPath)
	if err != nil {
		return err
	}
	fmt.Printf("input: %d bytes\n", len(input))

	scored = scored || a.Scored()
	var matches []pap.Match
	if parallel {
		cfg := pap.DefaultConfig(ranks)
		cfg.Engine = engine
		cfg.Scoring = scored
		rep, err := a.MatchParallel(input, cfg)
		if err != nil {
			return err
		}
		matches = rep.Matches
		s := rep.Stats
		fmt.Printf("parallel: %d segments, cut symbol %q (range %d)\n",
			s.Segments, s.CutSymbol, s.CutRange)
		fmt.Printf("modelled AP time: %.1f µs sequential -> %.1f µs parallel (%.2fx of ideal %.0fx)\n",
			s.BaselineNS/1e3, s.ParallelNS/1e3, s.Speedup, s.IdealSpeedup)
		fmt.Printf("flows: %.1f avg active; switching overhead %.2f%%; report inflation %.2fx\n",
			s.AvgActiveFlows, s.SwitchOverheadPct, s.FalseReportRatio)
	} else if scored {
		// A scored sequential run through the stream API: scores carry in
		// the engine, so one whole-input Write equals chunked writes.
		st := a.NewStream(pap.WithEngine(engine), pap.WithScoring())
		matches = append(matches, st.Write(input)...)
	} else {
		matches, _ = a.MatchWithInfo(input, engine)
	}

	fmt.Printf("%d matches\n", len(matches))
	if scored {
		best, ok := bestScore(matches)
		if ok {
			fmt.Printf("best score: %d\n", best)
		}
	}
	if quiet {
		return nil
	}
	for i, m := range matches {
		if i >= maxPrint {
			fmt.Printf("... and %d more\n", len(matches)-maxPrint)
			break
		}
		if scored {
			fmt.Printf("  rule %d at offset %d score %d\n", m.Code, m.Offset, m.Score)
		} else {
			fmt.Printf("  rule %d at offset %d\n", m.Code, m.Offset)
		}
	}
	return nil
}

// bestScore returns the maximum match score; ok is false with no matches
// (scores may be negative, so 0 is not a sentinel).
func bestScore(ms []pap.Match) (best int64, ok bool) {
	for _, m := range ms {
		if !ok || m.Score > best {
			best, ok = m.Score, true
		}
	}
	return best, ok
}

func loadANML(path string) (*pap.Automaton, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pap.DecodeANML(f)
}

func loadMNRL(path string) (*pap.Automaton, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pap.DecodeMNRL(f)
}

func readRules(path string) ([]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var patterns []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		patterns = append(patterns, line)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		return nil, fmt.Errorf("%s: no patterns", path)
	}
	return patterns, nil
}

func readInput(path string) ([]byte, error) {
	if path == "-" {
		return io.ReadAll(os.Stdin)
	}
	return os.ReadFile(path)
}
