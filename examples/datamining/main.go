// Sequential pattern mining: count candidate sequential patterns ("A then
// B then C, in order, any gaps") over a transaction stream — the paper's
// SPM scenario (Apriori-style mining, where NFA processing dominates
// runtime), and reports the modelled speedup of enumerating the stream's
// segments in parallel.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"strings"

	"pap"
)

// Items are single symbols; a transaction is a short sorted item group and
// the stream is the concatenation of transactions. A candidate sequence
// "A.*B.*C" matches when its items occur in order anywhere in the stream —
// the unbounded-gap shape whose always-on states make SPM's enumeration
// flows persistent.
const items = "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

func main() {
	rng := rand.New(rand.NewSource(4))

	// Candidate 3-sequences to support-count (as Apriori would generate).
	var candidates []string
	var names []string
	for i := 0; i < 40; i++ {
		a, b, c := items[rng.Intn(10)], items[10+rng.Intn(8)], items[18+rng.Intn(8)]
		candidates = append(candidates, fmt.Sprintf("%c.*%c.*%c", a, b, c))
		names = append(names, fmt.Sprintf("%c->%c->%c", a, b, c))
	}
	miner, err := pap.Compile("spm", candidates)
	if err != nil {
		log.Fatal(err)
	}
	st := miner.Stats()
	fmt.Printf("candidate automaton: %d sequences, %d states, %d components\n",
		len(candidates), st.States, st.ConnectedComponents)

	stream := makeTransactions(rng, 1<<17)
	fmt.Printf("transaction stream: %d items\n", len(stream))

	rep, err := miner.MatchParallel(stream, pap.DefaultConfig(4))
	if err != nil {
		log.Fatal(err)
	}
	support := map[int32]int{}
	for _, m := range rep.Matches {
		support[m.Code]++
	}
	fmt.Println("top supported sequences:")
	top := 0
	for code := range candidates {
		if n := support[int32(code)]; n > 0 {
			fmt.Printf("  %6d  %s\n", n, names[code])
			if top++; top == 5 {
				break
			}
		}
	}
	s := rep.Stats
	fmt.Printf("\nenumeration: %.1fx modelled speedup (ideal %.0fx), %.1f avg flows\n",
		s.Speedup, s.IdealSpeedup, s.AvgActiveFlows)
}

func makeTransactions(rng *rand.Rand, size int) []byte {
	var sb strings.Builder
	for sb.Len() < size {
		// One transaction: 3-6 distinct items, sorted.
		n := 3 + rng.Intn(4)
		seen := map[byte]bool{}
		var tx []byte
		for len(tx) < n {
			it := items[rng.Intn(len(items))]
			if !seen[it] {
				seen[it] = true
				tx = append(tx, it)
			}
		}
		for i := 0; i < len(tx); i++ {
			for j := i + 1; j < len(tx); j++ {
				if tx[j] < tx[i] {
					tx[i], tx[j] = tx[j], tx[i]
				}
			}
		}
		sb.Write(tx)
	}
	return []byte(sb.String()[:size])
}
