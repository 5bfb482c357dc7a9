package main

import (
	"fmt"
	"math/rand"
	"strings"

	"detcorr/internal/explore/difftest"
	"detcorr/internal/serve/api"
	"detcorr/internal/serve/corpus"
)

// item is one request of a workload. Name is stable across seeds and keys
// the ground-truth table.
type item struct {
	Name string
	Req  api.Request
}

func ring(n int) string    { return difftest.RingSource(n, n) }
func watched(n int) string { return difftest.RingWatchedSource(n, n) }

// ringChecks is the fixed check set asked of every ring-shaped program.
func ringChecks(prefix, src string) []item {
	return []item{
		{prefix + "/closure", api.Request{Program: src, Check: api.CheckClosure, Invariant: "Legit"}},
		{prefix + "/convergence", api.Request{Program: src, Check: api.CheckConvergence, Invariant: "true", Goal: "Legit"}},
		{prefix + "/detects", api.Request{Program: src, Check: api.CheckDetects, Z: "Legit", X: "Legit"}},
		{prefix + "/corrects", api.Request{Program: src, Check: api.CheckCorrects, Z: "Legit", X: "Legit"}},
		{prefix + "/deadlock-faults", api.Request{Program: src, Check: api.CheckDeadlock, Faults: true}},
		{prefix + "/prove-closure", api.Request{Program: src, Check: api.CheckProve, Invariant: "Legit"}},
	}
}

// coldItems is the cold-verdict sweep, in its fixed order; the seed only
// permutes it (see coldOrder).
func coldItems() []item {
	var out []item
	for n := 3; n <= 7; n++ {
		out = append(out, ringChecks(fmt.Sprintf("ring%d", n), ring(n))...)
		if n <= 4 {
			out = append(out, item{fmt.Sprintf("ring%d/corrects-nonmasking", n),
				api.Request{Program: ring(n), Check: api.CheckCorrects, Z: "Legit", X: "Legit", Tolerant: "nonmasking"}})
		}
	}
	// n = 5 is left out of the watched family: its detects verdict takes
	// 7.6 s, too close to the 10 s limit to be decided reliably.
	for _, n := range []int{4, 6} {
		out = append(out, ringChecks(fmt.Sprintf("watched%d", n), watched(n))...)
	}
	out = append(out,
		item{"memaccess_pf/detects-failsafe", api.Request{Program: difftest.MemaccessPF, Check: api.CheckDetects, Z: "Z1p", X: "X1", From: "U1", Tolerant: "failsafe"}},
		item{"memaccess_pf/corrects-nonmasking", api.Request{Program: difftest.MemaccessPF, Check: api.CheckCorrects, Z: "X1", X: "X1", From: "U1", Tolerant: "nonmasking"}},
		item{"memaccess_pn/corrects-nonmasking", api.Request{Program: difftest.MemaccessPN, Check: api.CheckCorrects, Z: "X1", X: "X1", Tolerant: "nonmasking"}},
		item{"memaccess_pn/detects-failsafe", api.Request{Program: difftest.MemaccessPN, Check: api.CheckDetects, Z: "S", X: "DataCorrect", Tolerant: "failsafe"}},
		item{"memaccess_pm/detects-masking", api.Request{Program: difftest.MemaccessPM, Check: api.CheckDetects, Z: "Z1p", X: "X1", From: "U1", Tolerant: "masking"}},
		item{"memaccess_pm/corrects-nonmasking", api.Request{Program: difftest.MemaccessPM, Check: api.CheckCorrects, Z: "X1", X: "X1", From: "U1", Tolerant: "nonmasking"}},
		item{"memaccess_pm/deadlock-faults", api.Request{Program: difftest.MemaccessPM, Check: api.CheckDeadlock, Faults: true}},
		item{"tmr/closure-S", api.Request{Program: difftest.TMRSource, Check: api.CheckClosure, Invariant: "S"}},
		item{"tmr/closure-T", api.Request{Program: difftest.TMRSource, Check: api.CheckClosure, Invariant: "T"}},
		item{"tmr/convergence", api.Request{Program: difftest.TMRSource, Check: api.CheckConvergence, Invariant: "T", Goal: "OutCorrect"}},
		item{"tmr/deadlock-faults", api.Request{Program: difftest.TMRSource, Check: api.CheckDeadlock, Faults: true}},
		item{"tmr/prove-span", api.Request{Program: difftest.TMRSource, Check: api.CheckProve, Invariant: "T", Span: "T"}},
		item{"byzagree/corrects", api.Request{Program: difftest.ByzAgreeSource, Check: api.CheckCorrects, Z: "Done", X: "Done", From: "S"}},
		item{"byzagree/closure", api.Request{Program: difftest.ByzAgreeSource, Check: api.CheckClosure, Invariant: "S"}},
		item{"byzagree/deadlock-faults", api.Request{Program: difftest.ByzAgreeSource, Check: api.CheckDeadlock, Faults: true}},
		item{"byzagree/prove-closure", api.Request{Program: difftest.ByzAgreeSource, Check: api.CheckProve, Invariant: "Done"}},
	)
	return out
}

// coldOrder is the seeded order of one sweep. Each verdict runs in a fresh
// process, so the order changes nothing the program sees; permuting it
// keeps any drift of the machine from landing on the same requests.
func coldOrder(seed int64) []item {
	items := coldItems()
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(items), func(i, j int) { items[i], items[j] = items[j], items[i] })
	return items
}

// countdownSource is corpus.Countdown generalised to top value t.
func countdownSource(t int) string {
	return fmt.Sprintf(`program countdown%d

var x : 0..%d

pred Zero :: x == 0
pred Top  :: x == %d

action dec :: x > 0 -> x := x - 1

fault bump :: x == 0 -> x := %d
`, t, t, t, t)
}

// memaccessVariant renames one of the paper's three memory-access programs,
// giving a distinct source (and registry entry) with the same semantics.
func memaccessVariant(base string, i int) string {
	name, _, _ := strings.Cut(strings.TrimPrefix(base, "program "), "\n")
	return strings.Replace(base, "program "+name, fmt.Sprintf("program %s_v%d", name, i), 1)
}

// corpusItems are corpus.Items under their ground-truth names.
func corpusItems() []item {
	var out []item
	for _, it := range corpus.Items() {
		out = append(out, item{"corpus/" + it.Name, it.Request})
	}
	return out
}

// servedPool is the served-mix request pool in Zipf rank order: the
// corpus head first, then the generated tail in a fixed shuffled order
// (the seed drives only the draws, so every seed sees the same mix). Every
// request here is cheap cold (milliseconds); ring corrects and detects at
// n >= 4 are not in the pool, since a single prover-bound miss would set
// the p99 on its own and cold-verdict already measures them.
func servedPool() []item {
	head := corpusItems()
	var tail []item
	// Rings stop at 4^7 states: larger K costs 5-30 ms cold, and a handful
	// of such misses would set the p99 and the saturation point by chance.
	for n := 3; n <= 4; n++ {
		for k := n; k <= 7+3-n; k++ {
			src := difftest.RingSource(n, k)
			p := fmt.Sprintf("ring%dk%d", n, k)
			tail = append(tail,
				item{p + "/closure", api.Request{Program: src, Check: api.CheckClosure, Invariant: "Legit"}},
				item{p + "/convergence", api.Request{Program: src, Check: api.CheckConvergence, Invariant: "true", Goal: "Legit"}},
				item{p + "/deadlock-faults", api.Request{Program: src, Check: api.CheckDeadlock, Faults: true}},
				item{p + "/prove-closure", api.Request{Program: src, Check: api.CheckProve, Invariant: "Legit"}},
			)
		}
	}
	for t := 4; t < 4+servedCountdowns; t++ {
		src := countdownSource(t)
		p := fmt.Sprintf("countdown%d", t)
		tail = append(tail,
			item{p + "/closure", api.Request{Program: src, Check: api.CheckClosure, Invariant: "Zero"}},
			item{p + "/convergence", api.Request{Program: src, Check: api.CheckConvergence, Invariant: "true", Goal: "Zero"}},
			item{p + "/deadlock", api.Request{Program: src, Check: api.CheckDeadlock, From: "Top"}},
			item{p + "/deadlock-faults", api.Request{Program: src, Check: api.CheckDeadlock, From: "Top", Faults: true}},
			item{p + "/prove-convergence", api.Request{Program: src, Check: api.CheckProve, Goal: "Zero"}},
		)
	}
	for i := 0; i < servedMemaccess; i++ {
		for _, b := range []struct{ name, src string }{
			{"pf", difftest.MemaccessPF}, {"pn", difftest.MemaccessPN}, {"pm", difftest.MemaccessPM},
		} {
			src := memaccessVariant(b.src, i)
			p := fmt.Sprintf("memaccess_%s_v%d", b.name, i)
			tail = append(tail,
				item{p + "/closure", api.Request{Program: src, Check: api.CheckClosure, Invariant: "S"}},
				item{p + "/deadlock-faults", api.Request{Program: src, Check: api.CheckDeadlock, Faults: true}},
				item{p + "/convergence", api.Request{Program: src, Check: api.CheckConvergence, Invariant: "S", Goal: "S"}},
			)
		}
	}
	r := rand.New(rand.NewSource(1))
	r.Shuffle(len(tail), func(i, j int) { tail[i], tail[j] = tail[j], tail[i] })
	return append(head, tail...)
}

// The tail sizes: 8 rings, servedCountdowns countdowns and
// 3*servedMemaccess memaccess variants are far more than the registry's
// 64 resident programs, and the pool's pairs outnumber the 1024-entry
// verdict cache, so tail requests keep recompiling and re-exploring.
const (
	servedCountdowns = 240
	servedMemaccess  = 20
)

// Edit toggles of the edit-session workload, in the shapes of dcbench
// -incr. A revision is a bitmask over them; its source is the base source
// with each set toggle applied in toggle order, so a revision's text is a
// function of its mask alone.
type toggle struct {
	name     string
	old, new func(n int) string
}

var ringToggles = []toggle{
	{"guard-tweak",
		func(int) string { return "action move1 :: x1 != x0" },
		func(int) string { return "action move1 :: !(!(x1 != x0))" }},
	{"assign-change",
		func(int) string { return "x0 := (x0 + 1)" },
		func(int) string { return "x0 := (x0 + 2)" }},
	{"action-add",
		func(int) string { return "\nfault corrupt0" },
		func(int) string { return "\naction nudge1 :: x1 != x0 -> x1 := x0\n\nfault corrupt0" }},
	{"action-remove",
		func(n int) string {
			return fmt.Sprintf("action move%d :: x%d != x%d -> x%d := x%d\n", n-1, n-1, n-2, n-1, n-2)
		},
		func(int) string { return "" }},
}

var watchdogToggle = toggle{"watchdog-guard",
	func(int) string { return "action mon.watch :: x0 == 0 & !alarm" },
	func(int) string { return "action mon.watch :: x0 == 1 & !alarm" }}

// document is one program an edit session revises: its base source, the
// toggles its revisions are made of, and the walk over their masks.
type document struct {
	name    string // "ring6", "watched6", "ring5"
	n       int
	base    string
	toggles []toggle
	walk    []int
}

// The walks visit every mask of their toggles once, starting from the
// base (mask 0) and flipping one toggle per step, so every edit yields a
// revision the session has not seen. They are balanced: each toggle
// flips as often as any other, give or take one, where a reflected Gray
// code would flip one toggle half the time. The watched ring gets fewer
// revisions than the plain ring (its steps cost three to six times as
// much), so the median step of a session is a ring-6 step, not the
// boundary between the two.
var (
	walk4 = []int{0, 1, 3, 2, 6, 7, 15, 11, 9, 13, 5, 4, 12, 14, 10, 8}
	walk3 = []int{0, 1, 3, 7, 5, 4, 6, 2}
)

func sessionDocs() (ring6, watched6, companion document) {
	ring6 = document{"ring6", 6, ring(6), ringToggles, walk4}
	watched6 = document{"watched6", 6, watched(6), []toggle{ringToggles[0], ringToggles[1], watchdogToggle}, walk3}
	companion = document{"ring5", 5, ring(5), ringToggles, walk4}
	return
}

// source renders the revision with the given toggle mask.
func (d document) source(mask int) (string, error) {
	src := d.base
	for i, t := range d.toggles {
		if mask&(1<<i) == 0 {
			continue
		}
		old := t.old(d.n)
		if !strings.Contains(src, old) {
			return "", fmt.Errorf("%s: edit %s: anchor %q not in source", d.name, t.name, old)
		}
		src = strings.Replace(src, old, t.new(d.n), 1)
	}
	return src, nil
}

// editRound is the fixed round of verdicts re-asked after each revision.
// Convergence comes first: it builds the full graph that detects and
// corrects then find in the cache, which keeps the prover out of the
// round. The watched ring asks no detects or corrects: its convergence
// check is decided on the cone-of-influence slice, so its full graph is
// never cached and every revision would send those two checks to the
// prover (seconds to minutes each; cold-verdict measures them).
func editRound(doc document, mask int, src string) []item {
	p := fmt.Sprintf("%s@%02d", doc.name, mask)
	conv := item{p + "/convergence", api.Request{Program: src, Check: api.CheckConvergence, Invariant: "true", Goal: "Legit"}}
	closure := item{p + "/closure", api.Request{Program: src, Check: api.CheckClosure, Invariant: "Legit"}}
	deadlock := item{p + "/deadlock", api.Request{Program: src, Check: api.CheckDeadlock}}
	switch doc.name {
	case "watched6":
		return []item{conv, closure, deadlock}
	case "ring5":
		// The companion: convergence again first, for the same reason.
		return []item{conv, {p + "/corrects-nonmasking",
			api.Request{Program: src, Check: api.CheckCorrects, Z: "Legit", X: "Legit", Tolerant: "nonmasking"}}}
	}
	return []item{conv, closure,
		{p + "/detects", api.Request{Program: src, Check: api.CheckDetects, Z: "Legit", X: "Legit"}},
		{p + "/corrects", api.Request{Program: src, Check: api.CheckCorrects, Z: "Legit", X: "Legit"}},
		deadlock,
	}
}

// editStep is one edit of a session: which document, and its old and new
// masks. A ring-6 edit is mirrored onto the ring-5 companion.
type editStep struct {
	doc       document
	from, to  int
	companion bool
}

// sessionSteps interleaves the ring-6 and watched-6 walks in a seeded
// order. The seed moves only the interleaving: which toggle flips at
// which step is fixed, because that choice alone moved a session's cost
// by a fifth from seed to seed.
func sessionSteps(seed int64) []editStep {
	r := rand.New(rand.NewSource(seed))
	ring6, watched6, _ := sessionDocs()
	a, b := ring6.walk, watched6.walk
	var steps []editStep
	i, j := 1, 1
	for i < len(a) || j < len(b) {
		takeA := j >= len(b) || (i < len(a) && r.Intn(len(a)-i+len(b)-j) < len(a)-i)
		if takeA {
			steps = append(steps, editStep{ring6, a[i-1], a[i], true})
			i++
		} else {
			steps = append(steps, editStep{watched6, b[j-1], b[j], false})
			j++
		}
	}
	return steps
}
