// Package crosscheck validates the library against itself on randomly
// generated programs: properties that must hold by the theory's
// metatheorems — span soundness, synthesis safety, closure preservation —
// and agreement between the model checker (package explore) and the
// simulation runtime (package runtime). A divergence in either direction
// would indicate a bug in the fairness semantics, the graph algorithms, or
// the scheduler.
package crosscheck

import (
	"fmt"
	"math/rand"
	"strings"

	"detcorr/internal/guarded"
	"detcorr/internal/state"
)

// GenConfig bounds the random program generator.
type GenConfig struct {
	Vars      int // boolean variables (default 3)
	Actions   int // deterministic actions (default 3)
	MaxLits   int // guard literals per action (default 2)
	MaxWrites int // variables written per action (default 2)
}

func (c GenConfig) withDefaults() GenConfig {
	if c.Vars == 0 {
		c.Vars = 3
	}
	if c.Actions == 0 {
		c.Actions = 3
	}
	if c.MaxLits == 0 {
		c.MaxLits = 2
	}
	if c.MaxWrites == 0 {
		c.MaxWrites = 2
	}
	return c
}

// genLit is one guard literal: v is true (pos) or false.
type genLit struct {
	v   int
	pos bool
}

// genWrite is one effect step on variable v.
type genWrite struct {
	v    int
	mode int // 0: set, 1: clear, 2: flip
}

type genAction struct {
	lits   []genLit
	writes []genWrite // applied in order
}

// draw makes the seeded random choices Generate and GenerateSource share.
func draw(rng *rand.Rand, cfg GenConfig) []genAction {
	actions := make([]genAction, cfg.Actions)
	for a := range actions {
		// Guard: a conjunction of 1..MaxLits random literals.
		lits := make([]genLit, 1+rng.Intn(cfg.MaxLits))
		for i := range lits {
			lits[i] = genLit{v: rng.Intn(cfg.Vars), pos: rng.Intn(2) == 0}
		}
		// Effect: write 1..MaxWrites variables with constants or flips.
		writes := make([]genWrite, 1+rng.Intn(cfg.MaxWrites))
		for i := range writes {
			writes[i] = genWrite{v: rng.Intn(cfg.Vars), mode: rng.Intn(3)}
		}
		actions[a] = genAction{lits: lits, writes: writes}
	}
	return actions
}

// Generate builds a random deterministic boolean program. The same seed
// yields the same program.
func Generate(seed int64, cfg GenConfig) (*guarded.Program, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	vars := make([]state.Var, cfg.Vars)
	for i := range vars {
		vars[i] = state.BoolVar(fmt.Sprintf("v%d", i))
	}
	sch, err := state.NewSchema(vars...)
	if err != nil {
		return nil, err
	}
	drawn := draw(rng, cfg)
	actions := make([]guarded.Action, len(drawn))
	for a, ga := range drawn {
		guardName := ""
		for i, l := range ga.lits {
			if i > 0 {
				guardName += " ∧ "
			}
			if !l.pos {
				guardName += "¬"
			}
			guardName += fmt.Sprintf("v%d", l.v)
		}
		lits := ga.lits
		guard := state.Pred(guardName, func(s state.State) bool {
			for _, l := range lits {
				if s.Bool(l.v) != l.pos {
					return false
				}
			}
			return true
		})
		writes := ga.writes
		actions[a] = guarded.Det(fmt.Sprintf("a%d", a), guard, func(s state.State) state.State {
			for _, w := range writes {
				switch w.mode {
				case 0:
					s = s.WithBool(w.v, true)
				case 1:
					s = s.WithBool(w.v, false)
				default:
					s = s.WithBool(w.v, !s.Bool(w.v))
				}
			}
			return s
		})
	}
	return guarded.NewProgram(fmt.Sprintf("rand%d", seed), sch, actions...)
}

// GenerateSource renders the program Generate(seed, cfg) builds as GCL
// source, so the prover and the slicer, which work on source, can see it
// too. Each action's sequential writes become one simultaneous assignment
// of their net effect. The file also declares preds random predicates
// P0..P{preds-1}, each a disjunction of up to two conjunctions of up to
// two literals, drawn after the program from the same seed.
func GenerateSource(seed int64, cfg GenConfig, preds int) string {
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	drawn := draw(rng, cfg)
	var b strings.Builder
	fmt.Fprintf(&b, "program rand%d\n\n", seed)
	for i := 0; i < cfg.Vars; i++ {
		fmt.Fprintf(&b, "var v%d : bool\n", i)
	}
	lit := func(l genLit) string {
		if l.pos {
			return fmt.Sprintf("v%d", l.v)
		}
		return fmt.Sprintf("!v%d", l.v)
	}
	b.WriteString("\n")
	for i := 0; i < preds; i++ {
		var terms []string
		for t := 1 + rng.Intn(2); t > 0; t-- {
			var ls []string
			for k := 1 + rng.Intn(2); k > 0; k-- {
				ls = append(ls, lit(genLit{v: rng.Intn(cfg.Vars), pos: rng.Intn(2) == 0}))
			}
			terms = append(terms, "("+strings.Join(ls, " & ")+")")
		}
		fmt.Fprintf(&b, "pred P%d :: %s\n", i, strings.Join(terms, " | "))
	}
	b.WriteString("\n")
	for a, ga := range drawn {
		guard := make([]string, len(ga.lits))
		for i, l := range ga.lits {
			guard[i] = lit(l)
		}
		// Net effect per variable: 0 keep, 1 set, 2 clear, 3 flip.
		net := make([]int, cfg.Vars)
		written := make([]bool, cfg.Vars)
		for _, w := range ga.writes {
			written[w.v] = true
			switch w.mode {
			case 0:
				net[w.v] = 1
			case 1:
				net[w.v] = 2
			default:
				net[w.v] = [...]int{3, 2, 1, 0}[net[w.v]]
			}
		}
		var assigns []string
		for v := range net {
			if !written[v] {
				continue
			}
			rhs := [...]string{fmt.Sprintf("v%d", v), "true", "false", fmt.Sprintf("!v%d", v)}[net[v]]
			assigns = append(assigns, fmt.Sprintf("v%d := %s", v, rhs))
		}
		fmt.Fprintf(&b, "action a%d :: %s -> %s\n", a, strings.Join(guard, " & "), strings.Join(assigns, ", "))
	}
	return b.String()
}

// RandomPredicate returns a seeded random predicate over the program's
// schema: a disjunction of full-state minterms.
func RandomPredicate(seed int64, sch *state.Schema) state.Predicate {
	rng := rand.New(rand.NewSource(seed))
	n, _ := sch.NumStates()
	members := make(map[uint64]bool)
	count := 1 + rng.Intn(int(n))
	for i := 0; i < count; i++ {
		members[uint64(rng.Intn(int(n)))] = true
	}
	return state.Pred(fmt.Sprintf("rand-pred-%d", seed), func(s state.State) bool {
		return members[s.Index()]
	})
}
