package flow

import (
	"context"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"detcorr/internal/core"
	"detcorr/internal/gcl"
	"detcorr/internal/ladder"
	"detcorr/internal/prove"
	"detcorr/internal/spec"
	"detcorr/internal/state"
)

// The slice tier of the verdict ladder (internal/ladder). Certify attaches
// one per compiled program, keyed by the *guarded.Program pointer: composed
// or hand-assembled programs have none, and sliced programs are never
// flow-certified, so a sliced check can never recurse into the slicer.
//
// The tier is sound by construction: a sliced PASS decides the verdict
// (the cone projection argument in DESIGN.md §3i shows the verdicts
// coincide), while a sliced violation is a decline and the ladder goes on
// to the full-space check — the public path therefore always reports the
// same witness states, full-width, that the unsliced check would have. The
// sliced check runs its own nested ladder on the same verdict budget.

type sliceEntry struct {
	f    *gcl.File
	info *Info

	mu     sync.Mutex
	slices map[string]*sliceResult
}

type sliceResult struct {
	sl *Slice // nil when slicing does not apply to these targets
}

var disabled atomic.Bool

// SetEnabled turns the slice tier on or off process-wide (it is on by
// default). Disabling never discards analysis — the attached tiers stay —
// it only makes them decline, so every check runs full-width.
func SetEnabled(on bool) { disabled.Store(!on) }

// Enabled reports whether the slice tier is active.
func Enabled() bool { return !disabled.Load() }

// Certify prepares a compiled file for cone-of-influence slicing: the
// file's dependence analysis is computed, its Writes metadata is
// cross-checked against the inferred sets (a mismatch is returned as an
// error and no tier is attached), and the slice tier is attached to its
// program's ladder. Files without an AST are skipped silently. Like prover
// certification, slicing never changes a verdict — the tier decides only
// sliced passes.
func Certify(f *gcl.File) error {
	if f == nil || f.AST == nil || f.Program == nil {
		return nil
	}
	if err := ValidateWrites(f); err != nil {
		return err
	}
	ladder.Attach(f.Program, &sliceEntry{f: f, info: Analyze(f.AST), slices: map[string]*sliceResult{}})
	return nil
}

// sliceFor returns the memoized slice for the given named targets, or nil
// when slicing does not apply: some target is not a declared predicate,
// the cone is empty, or the cone covers every variable (no reduction, so
// the full check is strictly better). The compiled slice is cached so
// repeated verdicts reuse one program pointer — the process-wide graph
// cache then makes repeated sliced checks one-build cheap, exactly like
// full checks.
func (e *sliceEntry) sliceFor(targets []string) *Slice {
	names := append([]string(nil), targets...)
	sort.Strings(names)
	key := strings.Join(names, ",")
	e.mu.Lock()
	defer e.mu.Unlock()
	if r, ok := e.slices[key]; ok {
		return r.sl
	}
	r := &sliceResult{}
	cone, err := e.info.Cone(names...)
	if err == nil && len(cone.Vars) > 0 && len(cone.Vars) < len(e.info.Vars) {
		if sl, serr := sliceInfo(e.info, e.f, names...); serr == nil {
			// The slice is a first-class compiled file: give it the prove
			// tier too. It is deliberately NOT flow-certified.
			_ = prove.Certify(sl.File)
			r.sl = sl
		}
	}
	e.slices[key] = r
	return r.sl
}

// targetNames extracts the declared-predicate names of the given
// predicates. Trivial predicates (true) contribute no target; ok is false
// when any non-trivial predicate is not declared in the file, or when no
// named target remains.
func (e *sliceEntry) targetNames(preds ...state.Predicate) ([]string, bool) {
	var names []string
	for _, p := range preds {
		if p.IsTrivial() || p.String() == "true" {
			continue
		}
		if _, ok := e.info.Pred(p.String()); !ok {
			return nil, false
		}
		names = append(names, p.String())
	}
	if len(names) == 0 {
		return nil, false
	}
	return names, true
}

// slicedPred resolves a predicate of the full file onto the slice.
func slicedPred(sl *Slice, p state.Predicate) (state.Predicate, bool) {
	if p.IsTrivial() || p.String() == "true" {
		return state.True, true
	}
	sp, ok := sl.File.Pred(p.String())
	return sp, ok
}

func (e *sliceEntry) Tier() ladder.Tier { return ladder.Slice }

// Try runs q on the slice of its targets' cone. A sliced pass decides q; a
// sliced violation, or an operational error on the slice, is NoProof.
func (e *sliceEntry) Try(ctx context.Context, q ladder.Query) ladder.Outcome {
	if !Enabled() {
		return ladder.NotApplicable
	}
	preds := q.Preds()
	targets, ok := e.targetNames(preds...)
	if !ok {
		return ladder.NotApplicable
	}
	sl := e.sliceFor(targets)
	if sl == nil {
		return ladder.NotApplicable
	}
	sp := make([]state.Predicate, len(preds))
	for i, p := range preds {
		if sp[i], ok = slicedPred(sl, p); !ok {
			return ladder.NotApplicable
		}
	}
	var err error
	prog := sl.File.Program
	name := "slice(" + sl.File.Name + ")"
	switch q.Kind {
	case ladder.Closed:
		err = spec.CheckClosedCtx(ctx, prog, sp[0])
	case ladder.Converges:
		err = spec.CheckConvergesCtx(ctx, prog, sp[0], sp[1])
	case ladder.Detects:
		err = core.Detector{Name: name, D: prog, Z: sp[0], X: sp[1], U: sp[2]}.CheckCtx(ctx)
	case ladder.Corrects:
		err = core.Corrector{Name: name, C: prog, Z: sp[0], X: sp[1], U: sp[2]}.CheckCtx(ctx)
	default:
		return ladder.NotApplicable
	}
	if err != nil {
		return ladder.NoProof
	}
	return ladder.Holds
}
