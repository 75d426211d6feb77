package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"strings"
)

// The generators below never call into the program under test: rules are
// kept in structured form, rendered once as regex text for the program and
// walked for the corpus. A workload's shape (rule count, literal lengths,
// gap kinds, corpus layout) is a function of the rule index only; the seed
// picks the bytes. Two seeds therefore give rulesets with the same state
// count and different content, which keeps set-up time and memory
// comparable from seed to seed.

// elem is one position of a rule: a byte set repeated min..max times.
type elem struct {
	set      []byte // member bytes; nil means every byte but those in not
	not      []byte // with a nil set: the excluded bytes ('.' when empty)
	min, max int    // max < 0 means unbounded
}

// rule is a chain of elems; a pattern matches anywhere in the input.
type rule []elem

func lit(b []byte) rule {
	r := make(rule, len(b))
	for i, c := range b {
		r[i] = elem{set: []byte{c}, min: 1, max: 1}
	}
	return r
}

func gap(min, max int) elem { return elem{min: min, max: max} }

// lineGap is Snort's '.*': pcre's dot without /s stops at a line end.
func lineGap() elem { return elem{not: []byte{'\n'}, min: 0, max: -1} }

func isAlnum(c byte) bool {
	return c >= '0' && c <= '9' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z'
}

func renderByte(sb *strings.Builder, c byte) {
	if isAlnum(c) || c == ' ' || c == '/' || c == '=' || c == '&' || c == '_' || c == '%' || c == ':' {
		sb.WriteByte(c)
		return
	}
	fmt.Fprintf(sb, `\x%02x`, c)
}

// render writes the rule as regex text in the subset internal/regex accepts.
func (r rule) render() string {
	var sb strings.Builder
	for _, e := range r {
		switch {
		case e.set == nil && len(e.not) == 0:
			sb.WriteByte('.')
		case e.set == nil:
			sb.WriteString("[^")
			for _, c := range e.not {
				renderByte(&sb, c)
			}
			sb.WriteByte(']')
		case len(e.set) == 1:
			renderByte(&sb, e.set[0])
		default:
			sb.WriteByte('[')
			for _, c := range e.set {
				renderByte(&sb, c)
			}
			sb.WriteByte(']')
		}
		switch {
		case e.min == 1 && e.max == 1:
		case e.min == 0 && e.max < 0:
			sb.WriteByte('*')
		case e.min == 1 && e.max < 0:
			sb.WriteByte('+')
		case e.min == e.max:
			fmt.Fprintf(&sb, "{%d}", e.min)
		default:
			fmt.Fprintf(&sb, "{%d,%d}", e.min, e.max)
		}
	}
	return sb.String()
}

// reps draws how often the walk repeats e: within the bounds, and a few
// bytes past the minimum for an unbounded gap.
func (e elem) reps(rng *rand.Rand) int {
	if e.max < 0 {
		return e.min + rng.Intn(6)
	}
	return e.min + rng.Intn(e.max-e.min+1)
}

func (e elem) pick(rng *rand.Rand, filler []byte) byte {
	if e.set != nil {
		return e.set[rng.Intn(len(e.set))]
	}
	for {
		if c := filler[rng.Intn(len(filler))]; bytes.IndexByte(e.not, c) < 0 {
			return c
		}
	}
}

// instance returns one full occurrence of the rule.
func (r rule) instance(rng *rand.Rand, filler []byte) []byte {
	var out []byte
	for _, e := range r {
		for n := e.reps(rng); n > 0; n-- {
			out = append(out, e.pick(rng, filler))
		}
	}
	return out
}

// walkPM is the probability that the walk extends a partial match by one
// byte (Becchi et al.'s p_m, the value the paper's traces use).
const walkPM = 0.75

// walk appends n bytes to dst: with probability walkPM the next byte of a
// partially matched rule (a fresh random rule when none is in progress),
// otherwise a filler byte, which abandons the partial match.
func walk(dst []byte, n int, rng *rand.Rand, rules []rule, filler []byte) []byte {
	var cur rule
	ei, left := 0, 0
	for ; n > 0; n-- {
		if rng.Float64() >= walkPM {
			dst = append(dst, filler[rng.Intn(len(filler))])
			cur = nil
			continue
		}
		if cur == nil {
			cur, ei = rules[rng.Intn(len(rules))], 0
			left = cur[0].reps(rng)
		}
		for left == 0 && ei+1 < len(cur) {
			ei++
			left = cur[ei].reps(rng)
		}
		if left == 0 { // rule ended on an empty gap
			dst = append(dst, filler[rng.Intn(len(filler))])
			cur = nil
			continue
		}
		dst = append(dst, cur[ei].pick(rng, filler))
		left--
		if left == 0 && ei+1 == len(cur) {
			cur = nil
		}
	}
	return dst
}

// plant overwrites count evenly spaced places of corpus with full rule
// instances, so every workload has matches.
func plant(corpus []byte, count int, rng *rand.Rand, rules []rule, filler []byte) {
	for k := 0; k < count; k++ {
		inst := rules[k%len(rules)].instance(rng, filler)
		at := (2*k + 1) * len(corpus) / (2 * count)
		if at+len(inst) <= len(corpus) {
			copy(corpus[at:], inst)
		}
	}
}

func byteRange(lo, hi byte) []byte {
	var out []byte
	for c := int(lo); c <= int(hi); c++ {
		out = append(out, byte(c))
	}
	return out
}

func randBytes(rng *rand.Rand, alphabet []byte, n int) []byte {
	out := make([]byte, n)
	for i := range out {
		out[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return out
}

// randSet returns w distinct bytes of alphabet.
func randSet(rng *rand.Rand, alphabet []byte, w int) []byte {
	p := rng.Perm(len(alphabet))[:w]
	out := make([]byte, w)
	for i, j := range p {
		out[i] = alphabet[j]
	}
	return out
}

var (
	printable = byteRange(0x20, 0x7e)
	lower     = byteRange('a', 'z')
	lowerNum  = append(byteRange('a', 'z'), byteRange('0', '9')...)
	highBytes = byteRange(0x80, 0xff)
	allBytes  = byteRange(0x00, 0xff)
	// ruleAlpha is what text rules are written over: letters, digits and the
	// punctuation of URLs and headers.
	ruleAlpha = append(append(append(byteRange('a', 'z'), byteRange('A', 'Z')...),
		byteRange('0', '9')...), []byte("/=&_%: ")...)
)

// workload is one set of inputs. unit, chunk and payload are the bytes per
// library call, per Stream.Write and per HTTP request.
type workload struct {
	name     string
	patterns []string
	corpus   []byte
	unit     int
	chunk    int
	payload  int
	// openRate is the fixed request rate of the open-loop point (req/s),
	// about half of what the closed loop sustains on two cores.
	openRate int
	sha      string
}

var workloadWhy = map[string]string{
	"snort_sparse":    "text rules over binary payloads: the prefilter and baseline-skip scans retire ~97% of bytes, the step kernel does little",
	"dotstar_dense":   "a hundred .* states stay live, nothing is skipped: the engine step kernel does the work and the skip paths do none",
	"needle_requests": "4096 records of 256 B: per-call set-up and papd's request handling dominate, the match itself is under a tenth of a request",
	"clamav_enum":     "long byte signatures with gaps over all 256 byte values: large cut range and live flows, so core's enumeration does real work",
}

var workloadNames = []string{"snort_sparse", "dotstar_dense", "needle_requests", "clamav_enum"}

// generate builds the named workload from seed.
func generate(name string, seed int64) (*workload, error) {
	rng := rand.New(rand.NewSource(seed))
	var (
		w     = &workload{name: name}
		rules []rule
	)
	switch name {
	case "snort_sparse":
		rules = snortRules(rng)
		w.corpus = snortCorpus(rng, rules, 1<<20)
		w.unit, w.chunk, w.payload, w.openRate = 1<<20, 4<<10, 64<<10, 150
	case "dotstar_dense":
		rules = dotstarRules(rng)
		w.corpus = walk(nil, 128<<10, rng, rules, printable)
		for i := range w.corpus { // line ends, the natural low-range cut symbol
			if rng.Intn(64) == 0 {
				w.corpus[i] = '\n'
			}
		}
		plant(w.corpus, 8, rng, rules, printable)
		w.unit, w.chunk, w.payload, w.openRate = 128<<10, 4<<10, 16<<10, 20
	case "needle_requests":
		rules = needleRules(rng)
		w.corpus = needleCorpus(rng, rules, 4096, 256)
		w.unit, w.chunk, w.payload, w.openRate = 256, 256, 256, 5000
	case "clamav_enum":
		rules = clamavRules(rng)
		// A file that holds every signature once, near its start: from the
		// second segment on every '.*' is live in every seed, so the number
		// of flows that stay alive, and with it the modelled speed-up, is a
		// property of the ruleset's shape and not of what the walk happened
		// to complete.
		for _, r := range rules {
			w.corpus = append(w.corpus, r.instance(rng, allBytes)...)
			w.corpus = append(w.corpus, randBytes(rng, allBytes, 16)...)
		}
		w.corpus = walk(w.corpus, 256<<10-len(w.corpus), rng, rules, allBytes)
		w.unit, w.chunk, w.payload, w.openRate = 256<<10, 4<<10, 64<<10, 10
	default:
		return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames, ", "))
	}
	h := sha256.New()
	for _, r := range rules {
		p := r.render()
		w.patterns = append(w.patterns, p)
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	h.Write(w.corpus)
	w.sha = hex.EncodeToString(h.Sum(nil))
	return w, nil
}

// snortRules: 100 content rules of 12..23 bytes; every fifth one keeps half
// its literal and grows a pcre-style tail of class+, '.*' (line-bounded, as
// pcre's dot is without /s) and class{m,n} parts.
func snortRules(rng *rand.Rand) []rule {
	rules := make([]rule, 100)
	for i := range rules {
		l := 12 + (i*7)%12
		if i%5 != 0 {
			rules[i] = lit(randBytes(rng, ruleAlpha, l))
			continue
		}
		r := lit(randBytes(rng, ruleAlpha, l/2))
		for j := 0; j < 3; j++ {
			switch (i/5 + j) % 3 {
			case 0:
				r = append(r, elem{set: randSet(rng, ruleAlpha, 3+(i+j)%8), min: 1, max: -1})
			case 1:
				r = append(r, lineGap())
				r = append(r, lit(randBytes(rng, ruleAlpha, 3))...)
			default:
				r = append(r, elem{set: randSet(rng, ruleAlpha, 2+(i+j)%4), min: 1 + j%2, max: 3 + j})
			}
		}
		rules[i] = append(r, lit(randBytes(rng, ruleAlpha, 2))...)
	}
	return rules
}

// snortCorpus: binary payload bytes (>= 0x80, outside every rule's first
// byte) with a short burst of rule-walk text about every 2 KiB.
func snortCorpus(rng *rand.Rand, rules []rule, size int) []byte {
	out := make([]byte, 0, size)
	for len(out) < size {
		out = append(out, randBytes(rng, highBytes, 1024+rng.Intn(2048))...)
		out = append(out, "GET /"...)
		out = walk(out, 48+rng.Intn(24), rng, rules, printable)
		out = append(out, " HTTP/1.1\r\n"...)
	}
	out = out[:size]
	plant(out, 8, rng, rules, printable)
	return out
}

// dotstarRules: 70 rules of 12..18 bytes, nine in ten split by one or two
// unbounded '.*' gaps.
func dotstarRules(rng *rand.Rand) []rule {
	rules := make([]rule, 70)
	for i := range rules {
		l := 12 + i%7
		if i%10 == 9 {
			rules[i] = lit(randBytes(rng, ruleAlpha, l))
			continue
		}
		stars := 1 + i%2
		var r rule
		for j := 0; j <= stars; j++ {
			if j > 0 {
				r = append(r, gap(0, -1))
			}
			r = append(r, lit(randBytes(rng, ruleAlpha, l/(stars+1)))...)
		}
		rules[i] = r
	}
	return rules
}

// needleRules: 8 literal needles, 'N' then 7..12 lowercase letters or digits.
func needleRules(rng *rand.Rand) []rule {
	rules := make([]rule, 8)
	for i := range rules {
		rules[i] = lit(append([]byte{'N'}, randBytes(rng, lowerNum, 7+(i*5)%6)...))
	}
	return rules
}

// needleCorpus: records of recLen bytes of lowercase words ending in '\n';
// every 16th record carries one needle. No other byte can start a rule.
func needleCorpus(rng *rand.Rand, rules []rule, records, recLen int) []byte {
	out := make([]byte, 0, records*recLen)
	for r := 0; r < records; r++ {
		rec := make([]byte, 0, recLen)
		for len(rec) < recLen-1 {
			rec = append(rec, randBytes(rng, lower, 2+rng.Intn(8))...)
			rec = append(rec, ' ')
		}
		rec = append(rec[:recLen-1], '\n')
		if r%16 == 7 {
			needle := rules[(r/16)%len(rules)].instance(rng, lower)
			copy(rec[1+rng.Intn(recLen-3-len(needle)):], needle)
		}
		out = append(out, rec...)
	}
	return out
}

// clamavRules: 50 signatures of 2..4 byte-literal runs of 18..33 bytes,
// joined by fixed-distance '.{n}' gaps (two in three) or '.*'.
func clamavRules(rng *rand.Rand) []rule {
	rules := make([]rule, 50)
	for i := range rules {
		var r rule
		for j := 0; j < 2+i%3; j++ {
			if j > 0 {
				if (i+j)%3 == 0 {
					r = append(r, gap(0, -1))
				} else {
					n := 2 + (i*5+j*3)%14
					r = append(r, gap(n, n))
				}
			}
			r = append(r, lit(randBytes(rng, allBytes, 18+(i*7+j*11)%16))...)
		}
		rules[i] = r
	}
	return rules
}
