package switching

import (
	"fmt"
	"time"
)

// Oracle decides which protocol index should be active for a given load
// metric. The paper deliberately leaves "which protocol is best" as an
// orthogonal problem solved by "some kind of oracle" (§1); these are the
// two policies §7 discusses.
type Oracle interface {
	// Preferred returns the protocol index the oracle wants active
	// given the current metric (e.g. number of active senders).
	Preferred(metric float64) int
}

// ThresholdOracle switches at a single cut-over point: protocol 0 below
// the threshold, protocol 1 at or above it. §7 observes that switching
// this aggressively near the crossover makes the hybrid oscillate.
type ThresholdOracle struct {
	// Threshold is the metric value at which protocol 1 becomes
	// preferred.
	Threshold float64
}

var _ Oracle = ThresholdOracle{}

// Preferred implements Oracle.
func (o ThresholdOracle) Preferred(metric float64) int {
	if metric >= o.Threshold {
		return 1
	}
	return 0
}

// HysteresisOracle is the paper's fix for oscillation (§7): protocol 1
// is preferred only once the metric exceeds High, and protocol 0 only
// once it falls below Low. Between the two bounds the oracle keeps its
// previous answer.
type HysteresisOracle struct {
	Low, High float64
	cur       int
}

var _ Oracle = (*HysteresisOracle)(nil)

// NewHysteresisOracle validates the band and returns an oracle starting
// at protocol 0.
func NewHysteresisOracle(low, high float64) (*HysteresisOracle, error) {
	if low >= high {
		return nil, fmt.Errorf("switching: hysteresis band [%v, %v) is empty", low, high)
	}
	return &HysteresisOracle{Low: low, High: high}, nil
}

// Preferred implements Oracle.
func (o *HysteresisOracle) Preferred(metric float64) int {
	switch {
	case metric >= o.High:
		o.cur = 1
	case metric < o.Low:
		o.cur = 0
	}
	return o.cur
}

// Controller periodically samples a load metric, consults the oracle,
// and requests a switch whenever the preferred protocol differs from
// the one new sends are using. One controller (the "manager") per group
// is typical; the token serializes concurrent requests regardless.
type Controller struct {
	sw       *Switch
	oracle   Oracle
	metric   func() float64
	interval time.Duration
	stopped  bool
	// SwitchRequests counts how many times the controller asked for a
	// switch — the oscillation measure of experiment E6.
	SwitchRequests uint64
}

// NewController starts a controller polling metric every interval.
func NewController(sw *Switch, oracle Oracle, metric func() float64, interval time.Duration) (*Controller, error) {
	if sw == nil || oracle == nil || metric == nil || interval <= 0 {
		return nil, fmt.Errorf("switching: controller needs switch, oracle, metric and interval")
	}
	c := &Controller{sw: sw, oracle: oracle, metric: metric, interval: interval}
	c.arm()
	return c, nil
}

func (c *Controller) arm() {
	c.sw.env.After(c.interval, func() {
		if c.stopped || c.sw.stopped {
			return
		}
		c.poll()
		c.arm()
	})
}

// poll runs one decision step (exposed for deterministic tests).
func (c *Controller) poll() {
	want := c.oracle.Preferred(c.metric())
	k := len(c.sw.protos)
	cur := int(c.sw.sendEpoch) % k
	if want == cur {
		c.sw.CancelSwitch()
		return
	}
	// With two protocols a single switch reaches any target; with more,
	// repeated switches walk the cycle.
	if !c.sw.SwitchPending() && !c.sw.Switching() {
		c.SwitchRequests++
		c.sw.RequestSwitch()
	}
}

// Stop halts polling.
func (c *Controller) Stop() { c.stopped = true }
