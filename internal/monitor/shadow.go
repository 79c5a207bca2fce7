package monitor

import (
	"fmt"
	"math"

	"dbcatcher/internal/correlate"
	"dbcatcher/internal/detect"
	"dbcatcher/internal/window"
)

// Shadow judging: before a retrained threshold set is promoted, the online
// judge replays every resolved round against both the live and the
// candidate thresholds on the same correlation matrices and counts the
// rounds whose per-database final states differ ("flips"). The correlation
// measurement — the expensive, allocation-sensitive part — runs once; only
// the cheap level-mapping is repeated, so shadowing costs one extra
// judgment pass per resolved round and nothing at all on non-resolving
// ticks. The relearning supervisor promotes the candidate
// only if the flip rate stays within budget, and discards it otherwise —
// the live thresholds are never touched until promotion, so rollback is
// simply forgetting the candidate.
//
// One approximation is inherent: the shadow cannot drive window expansion
// (the live thresholds own the flex loop), so a shadow round still
// Observable when the live round resolves is finalized under the exhaust
// policy — the same resolution the live judge would reach at the end of
// its expansion budget.

// shadowState tracks one candidate threshold set under comparison.
type shadowState struct {
	thresholds window.Thresholds
	startTick  int
	target     int // ticks the comparison should cover
	rounds     int // resolved rounds compared
	flips      int // rounds with any per-DB final-state difference
}

// ShadowStatus is a snapshot of an in-flight shadow comparison.
type ShadowStatus struct {
	// Active reports whether a candidate is currently shadowed.
	Active bool
	// Thresholds is the shadowed candidate (a clone; zero when inactive).
	Thresholds window.Thresholds
	// StartTick is the collection tick at which shadowing began.
	StartTick int
	// TargetTicks is the tick span the comparison should cover.
	TargetTicks int
	// TicksElapsed counts collection ticks since StartTick.
	TicksElapsed int
	// Rounds counts resolved judgment rounds compared so far.
	Rounds int
	// Flips counts compared rounds whose final states differed.
	Flips int
	// Done reports whether the comparison has covered its target span and
	// seen at least one resolved round.
	Done bool
}

// FlipRate returns Flips/Rounds, or 0 before any round resolved.
func (s ShadowStatus) FlipRate() float64 {
	if s.Rounds == 0 {
		return 0
	}
	return float64(s.Flips) / float64(s.Rounds)
}

// StartShadow begins shadow-judging the candidate thresholds alongside the
// live set for at least targetTicks collection ticks. A shadow already in
// flight is replaced. The candidate must validate against the judge's KPI
// count.
func (o *Online) StartShadow(t window.Thresholds, targetTicks int) error {
	kpis, _ := o.proc.Shape()
	if err := t.Validate(kpis); err != nil {
		return err
	}
	if targetTicks <= 0 {
		return fmt.Errorf("monitor: shadow target %d must be positive", targetTicks)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	o.shadow = &shadowState{
		thresholds: t.Clone(),
		startTick:  o.proc.Ticks(),
		target:     targetTicks,
	}
	return nil
}

// ShadowStatus snapshots the in-flight comparison; Active is false when no
// shadow is running.
func (o *Online) ShadowStatus() ShadowStatus {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.shadow == nil {
		return ShadowStatus{}
	}
	s := o.shadow
	elapsed := o.proc.Ticks() - s.startTick
	return ShadowStatus{
		Active:       true,
		Thresholds:   s.thresholds.Clone(),
		StartTick:    s.startTick,
		TargetTicks:  s.target,
		TicksElapsed: elapsed,
		Rounds:       s.rounds,
		Flips:        s.flips,
		Done:         elapsed >= s.target && s.rounds >= 1,
	}
}

// StopShadow abandons the in-flight comparison (auto-rollback: the live
// thresholds were never touched, so discarding the candidate is the whole
// rollback).
func (o *Online) StopShadow() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.shadow = nil
}

// PromoteShadow atomically swaps the shadowed candidate in as the live
// thresholds — validation, swap, and persistence all under the judge mutex,
// exactly like SetThresholds — and ends the comparison. It fails when no
// shadow is active.
func (o *Online) PromoteShadow() error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.shadow == nil {
		return fmt.Errorf("monitor: no shadow candidate to promote")
	}
	t := o.shadow.thresholds
	o.shadow = nil
	return o.setThresholdsLocked(t)
}

// observeShadow judges the resolved round's matrices under the shadow
// thresholds and records whether any database's final state flipped.
// Called from pushLocked with the mutex held, after the live finals are
// known and the live evidence is set aside; cfg already carries this
// round's effective active mask.
func (o *Online) observeShadow(mats []*correlate.Matrix, liveFinals []window.State, cfg detect.Config, kpis, dbs int) {
	if o.shadow == nil {
		return
	}
	cfg.Thresholds = o.shadow.thresholds
	states := o.judge.Judge(mats, cfg, kpis, dbs)
	round := detect.RoundState(states)
	// The shadow cannot expand the window, so an Observable shadow round
	// resolves under the exhaust policy (see the package comment above).
	finals := detect.FinalizeStates(states, o.cfg.Flex, round == window.Observable)
	o.shadow.rounds++
	for d := range finals {
		if finals[d] != liveFinals[d] {
			o.shadow.flips++
			return
		}
	}
}

// meanPairScore averages the pairwise correlation scores across all KPI
// matrices over pairs of active databases. It allocates nothing. NaN when
// no active pair exists.
func meanPairScore(mats []*correlate.Matrix, active []bool) float64 {
	sum, n := 0.0, 0
	for _, m := range mats {
		if m == nil {
			continue
		}
		for i := 0; i < m.N; i++ {
			if active != nil && !active[i] {
				continue
			}
			for j := i + 1; j < m.N; j++ {
				if active != nil && !active[j] {
					continue
				}
				sum += m.At(i, j)
				n++
			}
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}
