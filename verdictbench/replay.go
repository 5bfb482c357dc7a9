package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"detcorr/internal/core"
	"detcorr/internal/explore"
	"detcorr/internal/fault"
	"detcorr/internal/flow"
	"detcorr/internal/gcl"
	"detcorr/internal/lint"
	"detcorr/internal/prove"
	"detcorr/internal/serve"
	"detcorr/internal/serve/api"
	"detcorr/internal/spec"
	"detcorr/internal/state"
)

// The replayer re-runs a request as the sequence of public layer calls the
// serve pipeline makes, in the pipeline's order, and wraps a span around
// each call: LoadSource's four stages, each tier attempt (the prover as
// the certification hooks call it, the cone-of-influence slicer as its
// hook does), the bare build or scan, and the condition checks on the
// built graph. The pipeline's hook-driven entry points (spec.CheckClosed,
// core.Detector.Check, ...) are not called: the replay calls the pieces
// they are made of, so each piece gets its own span.
type replayer struct {
	ctx context.Context
	rec *recorder

	systems map[*gcl.File]*prove.System
	proved  map[string]bool // the hooks' per-program obligation cache
	infos   map[*gcl.File]*flow.Info
	slices  map[string]*flow.Slice // nil entries: slicing does not apply
}

func newReplayer(ctx context.Context, rec *recorder) *replayer {
	return &replayer{
		ctx: ctx, rec: rec,
		systems: map[*gcl.File]*prove.System{},
		proved:  map[string]bool{},
		infos:   map[*gcl.File]*flow.Info{},
		slices:  map[string]*flow.Slice{},
	}
}

// replayFailure is a condition the replay found violated: a fails verdict.
type replayFailure struct{ msg string }

func (e *replayFailure) Error() string { return e.msg }

// isViolation separates a fails verdict from an operational error, as
// serve does.
func isViolation(err error) bool {
	var cv *spec.ClosureViolation
	var lv *explore.LivenessViolation
	var ce *core.ConditionError
	var rf *replayFailure
	return errors.As(err, &cv) || errors.As(err, &lv) || errors.As(err, &ce) || errors.As(err, &rf)
}

// load is serve.LoadSource, stage by stage.
func (r *replayer) load(src string) (*gcl.File, error) {
	var ast *gcl.FileAST
	var f *gcl.File
	var err error
	r.rec.do("gcl.parse", func() { ast, err = gcl.Parse(src) })
	if err != nil {
		return nil, &serve.LoadError{Stage: "parse", Err: err}
	}
	r.rec.do("lint.analyze", func() { err = lint.Errors(lint.Analyze("request.gcl", ast, src)) })
	if err != nil {
		return nil, &serve.LoadError{Stage: "lint", Err: err}
	}
	r.rec.do("gcl.compile", func() { f, err = gcl.Compile(ast) })
	if err != nil {
		return nil, &serve.LoadError{Stage: "compile", Err: err}
	}
	f.Src = src
	r.rec.do("prove.certify", func() { _ = prove.Certify(f) })
	r.rec.do("flow.certify", func() { _ = flow.Certify(f) })
	return f, nil
}

// check replays one verdict on a loaded file and returns its verdict.
func (r *replayer) check(f *gcl.File, req api.Request) (string, error) {
	if err := req.Validate(); err != nil {
		return "", err
	}
	pred := func(name string) (state.Predicate, error) {
		if name == "" || name == "true" {
			return state.True, nil
		}
		p, ok := f.Pred(name)
		if !ok {
			return state.Predicate{}, fmt.Errorf("no predicate %q", name)
		}
		return p, nil
	}
	var err error
	switch req.Check {
	case api.CheckProve:
		var resp *api.Response
		r.rec.enter("prove.attempt")
		resp, err = serve.Eval(r.ctx, f, req)
		r.rec.exit(nil)
		if err != nil {
			return "", err
		}
		return resp.Verdict, nil
	case api.CheckDeadlock:
		return r.deadlock(f, req)
	case api.CheckClosure:
		s, perr := pred(req.Invariant)
		if perr != nil {
			return "", perr
		}
		err = r.closure(f, s, true)
	case api.CheckConvergence:
		s, perr := pred(req.Invariant)
		if perr != nil {
			return "", perr
		}
		g, perr := pred(req.Goal)
		if perr != nil {
			return "", perr
		}
		err = r.convergence(f, s, g)
	case api.CheckDetects, api.CheckCorrects:
		var z, x, u state.Predicate
		if z, err = pred(req.Z); err != nil {
			return "", err
		}
		if x, err = pred(req.X); err != nil {
			return "", err
		}
		if u, err = pred(req.From); err != nil {
			return "", err
		}
		kind := "detector"
		if req.Check == api.CheckCorrects {
			kind = "corrector"
		}
		err = r.component(f, kind, z, x, u, true)
		if err == nil && req.Tolerant != "" {
			err = r.tolerant(f, kind, z, x, u, req.Tolerant)
		}
	}
	if err == nil {
		return api.VerdictHolds, nil
	}
	if isViolation(err) {
		return api.VerdictFails, nil
	}
	return "", err
}

func (r *replayer) system(f *gcl.File) (*prove.System, error) {
	if sys, ok := r.systems[f]; ok {
		return sys, nil
	}
	sys, err := prove.NewSystem(f.AST)
	if err == nil {
		r.systems[f] = sys
	}
	return sys, err
}

// proveAttempt is the prover tier as the certification hooks run it: one
// attempt per program and obligation, remembered afterwards.
func (r *replayer) proveAttempt(f *gcl.File, key string, attempt func(*prove.System) bool) bool {
	key = fmt.Sprintf("%p:%s", f, key)
	if ok, seen := r.proved[key]; seen {
		return ok
	}
	r.rec.enter("prove.attempt")
	ok := false
	if sys, err := r.system(f); err == nil {
		ok = attempt(sys)
	}
	r.rec.exit(map[string]float64{"decided": boolf(ok)})
	r.proved[key] = ok
	return ok
}

// sliceTier is the cone-of-influence tier: slice f to the named targets
// (memoized per file and target set, as the slicer hook does) and, when
// the slice is smaller than the program, decide the check on it. It
// reports whether the slice decided the check (a pass; a sliced violation
// is re-derived full-width by the caller, as in the pipeline).
func (r *replayer) sliceTier(f *gcl.File, preds []state.Predicate, onSlice func(sl *flow.Slice) error) bool {
	var names []string
	for _, p := range preds {
		if p.IsTrivial() || p.String() == "true" {
			continue
		}
		if _, ok := f.Pred(p.String()); !ok {
			return false
		}
		names = append(names, p.String())
	}
	if len(names) == 0 {
		return false
	}
	sort.Strings(names)
	key := fmt.Sprintf("%p:%s", f, strings.Join(names, ","))
	decided := false
	attrs := map[string]float64{}
	r.rec.enter("flow.slice")
	sl, seen := r.slices[key]
	if !seen {
		info, ok := r.infos[f]
		if !ok {
			info = flow.Analyze(f.AST)
			r.infos[f] = info
		}
		if cone, err := info.Cone(names...); err == nil && len(info.Vars) > 0 {
			attrs["cone"] = float64(len(cone.Vars)) / float64(len(info.Vars))
			if len(cone.Vars) > 0 && len(cone.Vars) < len(info.Vars) {
				if s, err := flow.SliceFile(f, names...); err == nil {
					_ = prove.Certify(s.File)
					sl = s
				}
			}
		}
		r.slices[key] = sl
	}
	if sl != nil {
		decided = onSlice(sl) == nil
	}
	attrs["decided"] = boolf(decided)
	attrs["sliced"] = boolf(sl != nil)
	r.rec.exit(attrs)
	return decided
}

func boolf(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// slicedPred maps a predicate of the full file onto the slice.
func slicedPred(sl *flow.Slice, p state.Predicate) (state.Predicate, bool) {
	if p.IsTrivial() || p.String() == "true" {
		return state.True, true
	}
	return sl.File.Pred(p.String())
}

func peek(f *gcl.File, init state.Predicate) (*explore.Graph, bool) {
	return explore.Peek(f.Program, init, explore.Options{})
}

// build is the exploration the checks share: the process-wide cache, or a
// fresh build on a miss.
func (r *replayer) build(f *gcl.File, init state.Predicate) (*explore.Graph, error) {
	_, hit := peek(f, init)
	r.rec.enter("explore.build")
	g, err := explore.SharedCtx(r.ctx, f.Program, init, explore.Options{})
	attrs := map[string]float64{"hit": boolf(hit)}
	if err == nil && !hit {
		attrs["states"] = float64(g.NumNodes())
		attrs["edges"] = float64(g.NumEdges())
	}
	r.rec.exit(attrs)
	return g, err
}

// closure is spec.CheckClosed's ladder: prover, cached graph, slicer
// (full files only: slices are never slicer-registered), streaming scan.
func (r *replayer) closure(f *gcl.File, s state.Predicate, allowSlice bool) error {
	if r.proveAttempt(f, "closure:"+s.String(), func(sys *prove.System) bool {
		rep, err := prove.ProveClosure(sys, s.String())
		return err == nil && rep.Verdict == prove.Proved
	}) {
		return nil
	}
	g, ok := peek(f, s)
	if !ok {
		g, ok = peek(f, state.True)
	}
	if ok {
		var err error
		r.rec.do("spec.closed_on", func() { err = spec.CheckClosedOn(g, s) })
		return err
	}
	if allowSlice && r.sliceTier(f, []state.Predicate{s}, func(sl *flow.Slice) error {
		sp, ok := slicedPred(sl, s)
		if !ok {
			return fmt.Errorf("slice lost %s", s)
		}
		return r.closure(sl.File, sp, false)
	}) {
		return nil
	}
	var err error
	r.rec.do("explore.scan", func() { err = spec.CheckPairCtx(r.ctx, f.Program, s, s) })
	return err
}

// convergence is spec.CheckConverges: the slicer first unless the graph
// is cached, then both closures, the build, and the liveness query.
func (r *replayer) convergence(f *gcl.File, s, g state.Predicate) error {
	if _, cached := peek(f, s); !cached {
		if r.sliceTier(f, []state.Predicate{s, g}, func(sl *flow.Slice) error {
			ss, ok1 := slicedPred(sl, s)
			sg, ok2 := slicedPred(sl, g)
			if !ok1 || !ok2 {
				return fmt.Errorf("slice lost a predicate")
			}
			return r.convergenceOn(sl.File, ss, sg, false)
		}) {
			return nil
		}
	}
	return r.convergenceOn(f, s, g, true)
}

func (r *replayer) convergenceOn(f *gcl.File, s, goal state.Predicate, allowSlice bool) error {
	if err := r.closure(f, s, allowSlice); err != nil {
		return err
	}
	if err := r.closure(f, goal, allowSlice); err != nil {
		return err
	}
	g, err := r.build(f, s)
	if err != nil {
		return err
	}
	var from, to *explore.Bitset
	r.rec.do("explore.setof", func() { from, to = g.SetOf(s), g.SetOf(goal) })
	if v := r.eventually(g, from, to); v != nil {
		return v
	}
	return nil
}

// eventually is Graph.CheckEventually taken apart into its public pieces:
// the reach within the non-goal states, the deadlock test, and the fair
// cycle search. A probe span times the SCC decomposition alone, so the
// fair-cycle time can be split into decomposition and per-component work.
func (r *replayer) eventually(g *explore.Graph, from, goal *explore.Bitset) error {
	r.rec.enter("explore.eventually")
	defer r.rec.exit(nil)
	start := from.Clone()
	start.Subtract(goal)
	if start.Empty() {
		return nil
	}
	nonGoal := goal.Complement()
	var reach *explore.Bitset
	r.rec.do("explore.reach", func() { reach = g.Reach(start, nonGoal) })
	dead := reach.Clone()
	dead.Intersect(g.DeadlockSet())
	if !dead.Empty() {
		return &replayFailure{"deadlock outside the goal"}
	}
	r.rec.probing(func() { r.rec.do("explore.scc", func() { _ = g.SCCs(reach) }) })
	var comp []int
	r.rec.do("explore.faircycle", func() { comp = g.FairCycle(reach) })
	if comp != nil {
		return &replayFailure{"fair cycle outside the goal"}
	}
	return nil
}

// component is core.Detector.Check / core.Corrector.Check: with no cached
// graph the prover tier, then the slicer tier; then the build and the
// conditions on it.
func (r *replayer) component(f *gcl.File, kind string, z, x, u state.Predicate, allowSlice bool) error {
	if _, cached := peek(f, u); !cached {
		key := kind + ":" + z.String() + "|" + x.String() + "|" + u.String()
		if r.proveAttempt(f, key, func(sys *prove.System) bool {
			return prove.ProveComponent(sys, kind, z.String(), x.String(), u.String())
		}) {
			return nil
		}
		if allowSlice && r.sliceTier(f, []state.Predicate{z, x, u}, func(sl *flow.Slice) error {
			sz, ok1 := slicedPred(sl, z)
			sx, ok2 := slicedPred(sl, x)
			su, ok3 := slicedPred(sl, u)
			if !ok1 || !ok2 || !ok3 {
				return fmt.Errorf("slice lost a predicate")
			}
			return r.component(sl.File, kind, sz, sx, su, false)
		}) {
			return nil
		}
	}
	g, err := r.build(f, u)
	if err != nil {
		return err
	}
	r.rec.do("spec.closed_on", func() { err = spec.CheckClosedOn(g, u) })
	if err != nil {
		return err
	}
	var reach *explore.Bitset
	r.rec.do("explore.reach", func() { reach = g.Reach(g.SetOf(u), nil) })
	if err := r.conditions(g, reach, z, x, true); err != nil {
		return err
	}
	if kind == "corrector" {
		return r.convergenceCondition(g, reach, x)
	}
	return nil
}

// conditions are the detector conditions on a built graph restricted to
// reach: Safeness and Stability as set operations, Progress as a liveness
// query.
func (r *replayer) conditions(g *explore.Graph, reach *explore.Bitset, z, x state.Predicate, progress bool) error {
	r.rec.enter("core.conditions")
	zSet, xSet := g.SetOf(z), g.SetOf(x)
	viol := zSet.Clone()
	viol.Subtract(xSet)
	viol.Intersect(reach)
	if viol.Any() >= 0 {
		r.rec.exit(nil)
		return &replayFailure{"Safeness"}
	}
	zReach := zSet.Clone()
	zReach.Intersect(reach)
	stable := true
	zReach.ForEach(func(id int) bool {
		for _, e := range g.Out(id) {
			if !zSet.Has(e.To) && xSet.Has(e.To) {
				stable = false
				return false
			}
		}
		return true
	})
	if !stable {
		r.rec.exit(nil)
		return &replayFailure{"Stability"}
	}
	var err error
	if progress {
		start := xSet.Clone()
		start.Subtract(zSet)
		start.Intersect(reach)
		goal := xSet.Complement()
		goal.Union(zSet)
		err = r.eventually(g, start, goal)
	}
	r.rec.exit(nil)
	return err
}

// convergenceCondition is the corrector's Convergence: X is never
// falsified from a reachable X-state, and every computation reaches X.
func (r *replayer) convergenceCondition(g *explore.Graph, reach *explore.Bitset, x state.Predicate) error {
	r.rec.enter("core.conditions")
	defer r.rec.exit(nil)
	if err := xClosed(g, reach, x); err != nil {
		return err
	}
	goal := g.SetOf(x).Clone()
	goal.Intersect(reach)
	return r.eventually(g, reach, goal)
}

func xClosed(g *explore.Graph, reach *explore.Bitset, x state.Predicate) error {
	xSet := g.SetOf(x)
	xReach := xSet.Clone()
	xReach.Intersect(reach)
	closed := true
	xReach.ForEach(func(id int) bool {
		for _, e := range g.Out(id) {
			if !xSet.Has(e.To) {
				closed = false
				return false
			}
		}
		return true
	})
	if !closed {
		return &replayFailure{"a step falsifies X"}
	}
	return nil
}

// tolerant is CheckFTolerant after the fault-free check passed: the fault
// span, then the tolerance-specific conditions on it.
func (r *replayer) tolerant(f *gcl.File, kind string, z, x, u state.Predicate, tol string) error {
	var sp *fault.Span
	var err error
	r.rec.enter("explore.build")
	sp, err = fault.ComputeSpanCtx(r.ctx, f.Program, f.Faults, u)
	var attrs map[string]float64
	if err == nil {
		attrs = map[string]float64{"states": float64(sp.Graph.NumNodes()), "edges": float64(sp.Graph.NumEdges())}
	}
	r.rec.exit(attrs)
	if err != nil {
		return err
	}
	switch tol {
	case "failsafe", "fail-safe":
		if err := r.conditions(sp.Graph, sp.Reachable, z, x, false); err != nil {
			return err
		}
		if kind == "corrector" {
			return xClosed(sp.Graph, sp.Reachable, x)
		}
		return nil
	case "masking":
		if err := r.conditions(sp.Graph, sp.Reachable, z, x, true); err != nil {
			return err
		}
		if kind == "corrector" {
			return r.convergenceCondition(sp.Graph, sp.Reachable, x)
		}
		return nil
	}
	g, err := r.build(f, sp.Predicate)
	if err != nil {
		return err
	}
	var good *explore.Bitset
	r.rec.do("core.goodregion", func() {
		if kind == "corrector" {
			good = core.Corrector{C: f.Program, Z: z, X: x, U: u}.GoodRegion(g)
		} else {
			good = core.Detector{D: f.Program, Z: z, X: x, U: u}.GoodRegion(g)
		}
	})
	var from *explore.Bitset
	r.rec.do("explore.setof", func() { from = g.SetOf(sp.Predicate) })
	return r.eventually(g, from, good)
}

// deadlock is the streaming deadlock hunt.
func (r *replayer) deadlock(f *gcl.File, req api.Request) (string, error) {
	from := state.True
	if req.From != "" && req.From != "true" {
		p, ok := f.Pred(req.From)
		if !ok {
			return "", fmt.Errorf("no predicate %q", req.From)
		}
		from = p
	}
	prog := f.Program
	var fair []bool
	var found bool
	var err error
	r.rec.do("explore.scan", func() {
		if req.Faults && !f.Faults.Empty() {
			if prog, fair, err = fault.Compose(f.Program, f.Faults); err != nil {
				return
			}
		}
		_, found, err = explore.FindDeadlockCtx(r.ctx, prog, from, explore.ScanOptions{Fair: fair, MaxStates: req.MaxStates})
	})
	if err != nil {
		return "", err
	}
	if found {
		return api.VerdictDeadlock, nil
	}
	return api.VerdictDeadlockFree, nil
}

// bareProbe times the exploration the tiers exist to avoid: the
// from-scratch build (or, for closure, the streaming scan) the request
// would need with no tier at all. It bypasses the graph cache, so it
// leaves nothing behind for the replay. Deadlock and prove requests have
// no tier ladder and get no probe.
func (r *replayer) bareProbe(f *gcl.File, req api.Request) {
	pred := func(name string) state.Predicate {
		if p, ok := f.Pred(name); ok {
			return p
		}
		return state.True
	}
	r.rec.probing(func() {
		switch req.Check {
		case api.CheckClosure:
			r.rec.do("explore.scan", func() {
				s := pred(req.Invariant)
				_ = spec.CheckPairCtx(r.ctx, f.Program, s, s)
			})
		case api.CheckConvergence:
			r.rec.do("explore.build", func() { _, _ = explore.BuildCtx(r.ctx, f.Program, pred(req.Invariant), explore.Options{}) })
		case api.CheckDetects, api.CheckCorrects:
			r.rec.do("explore.build", func() { _, _ = explore.BuildCtx(r.ctx, f.Program, pred(req.From), explore.Options{}) })
		}
	})
}
