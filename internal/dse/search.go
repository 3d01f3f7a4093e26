package dse

import (
	"context"
	"errors"
	"fmt"

	"autopilot/internal/fault"
	"autopilot/internal/obs"
	"autopilot/internal/space"
)

// proposer is the ask/tell contract every Phase-2 optimizer implements:
// Propose returns the next points to score (none once the optimizer is
// done), and Observe tells it their objective vectors in order — nil for a
// design that failed or was skipped — possibly for only a prefix of the
// proposal when the budget runs out. A proposer never scores a design
// itself; search does.
type proposer interface {
	Propose() ([]space.Point, error)
	Observe(ys [][]float64)
}

// search is the one Phase-2 evaluation loop. It is the only code that scores
// designs during a search, and the only dedup: it answers revisits, enforces
// the budget, scores each proposal as one Evaluator.EvaluateEach batch, files
// every outcome in submission order, and then runs the probe sweep through
// the same scoring step.
type search struct {
	req Request
	ev  *Evaluator
	ps  space.Space
	res *Result
	// done maps every point used up by the running search, by its space
	// index, to its position in res.Evaluated, or -1 when it failed or was
	// skipped.
	done map[int64]int32
}

// run drives opt until it stops proposing or budget designs have returned
// objectives. Failed and skipped designs are used up without counting
// toward the budget; a revisited or repeated point is answered without an
// evaluator call and does not count either. A proposal that would pass the
// budget is cut before its first new design past it, and opt observes only
// that prefix. The first round is traced as bo.init, every later one as
// bo.iter.
func (s *search) run(ctx context.Context, opt proposer, budget int) error {
	s.done = map[int64]int32{}
	defer func() { s.done = nil }() // not needed by the probe sweep
	o := obs.FromContext(ctx)
	cIters := o.Counter("bo.iterations")
	cEvals := o.Counter("bo.evaluations")
	cFailed := o.Counter("bo.failed_evals")
	for round := 0; len(s.res.Evaluated) < budget; round++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("dse: cancelled: %w", err)
		}
		name := "bo.init"
		if round > 0 {
			name = "bo.iter"
			cIters.Inc()
		}
		sp := obs.StartStep(ctx, name, "bayesopt")
		more, err := s.round(ctx, opt, budget-len(s.res.Evaluated), cEvals, cFailed)
		sp.End()
		if err != nil || !more {
			return err
		}
	}
	return nil
}

// round asks opt for one proposal, scores its new designs (at most left of
// them) and tells opt the outcome. It reports false once opt is done.
func (s *search) round(ctx context.Context, opt proposer, left int, cEvals, cFailed *obs.Counter) (bool, error) {
	pts, err := opt.Propose()
	if err != nil || len(pts) == 0 {
		return false, err
	}
	// A new point is marked -2-i, i its index in fresh, until it is scored;
	// a used-up or repeated point is answered once the batch is filed.
	keys := make([]int64, len(pts))
	fresh := make([]DesignPoint, 0, min(len(pts), left))
	n := len(pts)
	for j, p := range pts {
		k, err := s.ps.Index(p)
		if err != nil {
			return false, fmt.Errorf("dse: optimizer proposed %w", err)
		}
		keys[j] = k
		if _, ok := s.done[k]; ok {
			continue
		}
		if len(fresh) == left {
			n = j
			break
		}
		d, err := s.req.Space.FromPoint(p)
		if err != nil {
			return false, err
		}
		s.done[k] = int32(-2 - len(fresh))
		fresh = append(fresh, d)
	}
	at := int32(len(s.res.Evaluated))
	errs, err := s.score(ctx, fresh, "")
	if err != nil {
		return false, err
	}
	cEvals.Add(int64(len(fresh)))
	ys := make([][]float64, n)
	for j, k := range keys[:n] {
		pos := s.done[k]
		if pos <= -2 { // the first copy of a new design settles its record
			if errs[-2-pos] == nil {
				pos, at = at, at+1
			} else {
				pos = -1
				cFailed.Inc()
			}
			s.done[k] = pos
		}
		if pos >= 0 {
			ys[j] = s.res.Evaluated[pos].Objectives()
		}
	}
	opt.Observe(ys)
	return true, nil
}

// score evaluates ds as one EvaluateEach batch, counts it in
// res.CacheMisses and files each outcome in submission order: a scored
// design is appended to res.Evaluated, an infeasible loadout to res.Skips,
// and — under a failure budget — any other failure to res.Failures as job
// prefix+design. Without a budget the lowest-index failure is returned once
// the whole batch has finished, so the error does not depend on the worker
// count; a cancellation is returned either way. errs[i] is nil exactly when
// ds[i] was scored.
func (s *search) score(ctx context.Context, ds []DesignPoint, prefix string) ([]error, error) {
	if len(ds) == 0 {
		return nil, nil
	}
	s.res.CacheMisses += int64(len(ds))
	es, errs, err := s.ev.EvaluateEach(ctx, ds)
	if err != nil {
		return nil, err
	}
	clean := true
	for i, err := range errs {
		if err == nil {
			continue
		}
		clean = false
		if sk, ok := asSkip(ds[i], err); ok {
			s.res.Skips = append(s.res.Skips, sk)
			continue
		}
		if s.req.FailureBudget <= 0 || errors.Is(err, context.Canceled) || errors.Is(err, ctx.Err()) {
			return nil, err
		}
		s.res.Failures = append(s.res.Failures, fault.NewFailure(prefix+ds[i].String(), err))
	}
	if clean && len(s.res.Evaluated) == 0 {
		s.res.Evaluated = es // a first clean batch is the result as is
		return errs, nil
	}
	for i, e := range es {
		if errs[i] == nil {
			s.res.Evaluated = append(s.res.Evaluated, e)
		}
	}
	return errs, nil
}

// probe scores the deterministic probe sweep after the search, skipping
// designs the search already scored or skipped; a design that failed is
// tried again. Failure records carry the "probe " job prefix.
func (s *search) probe(ctx context.Context) error {
	if !s.req.Config.ProbeCorners {
		return nil
	}
	sweep := probeSweep(s.req.Space, s.req.DB, s.req.Scenario)
	pending := make(map[DesignPoint]bool, len(sweep))
	for _, d := range sweep {
		pending[d] = true
	}
	for _, e := range s.res.Evaluated {
		delete(pending, e.Design)
	}
	skipped := make(map[string]bool, len(s.res.Skips))
	for _, sk := range s.res.Skips {
		skipped[sk.Design] = true
	}
	var probes []DesignPoint
	for _, d := range sweep {
		if pending[d] && !skipped[d.String()] {
			probes = append(probes, d)
		}
	}
	_, err := s.score(ctx, probes, "probe ")
	return err
}
