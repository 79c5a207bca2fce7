package window

import "fmt"

// FlexConfig parameterizes the flexible time window (§III-C): the initial
// size W (paper range 15-25 points) and the maximum size W_M (paper range
// 45-75). The expansion step Δ is W, as the paper generally sets it.
type FlexConfig struct {
	Initial int // W, also Δ
	Max     int // W_M
	// Disabled turns expansion off (the MM-KCD ablation of Table X): an
	// Observable verdict resolves immediately to Healthy within the
	// initial window.
	Disabled bool
}

// DefaultFlexConfig returns the paper's mid-range setting: W=20, Δ=W,
// W_M=60.
func DefaultFlexConfig() FlexConfig {
	return FlexConfig{Initial: 20, Max: 60}
}

// Validate checks the configuration.
func (c FlexConfig) Validate() error {
	if c.Initial <= 1 {
		return fmt.Errorf("window: initial size %d too small", c.Initial)
	}
	if c.Max < c.Initial {
		return fmt.Errorf("window: max %d below initial %d", c.Max, c.Initial)
	}
	return nil
}

// MaxWindow returns the largest window size a judgment round can actually
// reach under this configuration: the last element of the expansion
// sequence W, 2W, 3W, ... that does not exceed Max. Ring buffers sized to
// this value can never evict a live round's window start — Resolve
// refuses to grow past Max, so no round ever needs more than MaxWindow
// retained points.
func (c FlexConfig) MaxWindow() int {
	if c.Disabled || c.Initial <= 0 || c.Max < c.Initial {
		return c.Initial
	}
	return c.Max / c.Initial * c.Initial
}

// Flex tracks one in-flight judgment round: the current window size and
// whether another expansion is allowed.
type Flex struct {
	cfg  FlexConfig
	size int
}

// NewFlex starts a judgment round at the initial window size.
func NewFlex(cfg FlexConfig) (*Flex, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Flex{cfg: cfg, size: cfg.Initial}, nil
}

// Size returns the current window size in points.
func (f *Flex) Size() int { return f.size }

// Resolve folds a tentative state into the round's outcome:
//
//   - Healthy / Abnormal end the round (done=true, final=state).
//   - Observable expands the window (done=false) unless expansion is
//     disabled (done=true, Healthy) or the maximum is reached (done=true,
//     Abnormal): a deviation that persists across the maximum window is
//     no longer a temporal fluctuation.
func (f *Flex) Resolve(s State) (final State, done bool) {
	if s != Observable {
		return s, true
	}
	if f.cfg.Disabled {
		// MM variant: no expansion; within-tolerance deviations pass.
		return Healthy, true
	}
	next := f.size + f.cfg.Initial
	if next > f.cfg.Max {
		return Abnormal, true
	}
	f.size = next
	return Observable, false
}

// Reset begins a new round at the initial size.
func (f *Flex) Reset() { f.size = f.cfg.Initial }

// Restore positions the round at a previously observed window size (used
// when resuming a persisted judgment round). The size must be reachable by
// the expansion sequence W, 2W, ..., MaxWindow().
func (f *Flex) Restore(size int) error {
	if f.cfg.Disabled {
		if size != f.cfg.Initial {
			return fmt.Errorf("window: size %d invalid with expansion disabled (want %d)", size, f.cfg.Initial)
		}
		f.size = size
		return nil
	}
	if size < f.cfg.Initial || size > f.cfg.MaxWindow() {
		return fmt.Errorf("window: size %d outside [%d, %d]", size, f.cfg.Initial, f.cfg.MaxWindow())
	}
	if size%f.cfg.Initial != 0 {
		return fmt.Errorf("window: size %d not on the expansion sequence (W=%d)", size, f.cfg.Initial)
	}
	f.size = size
	return nil
}
