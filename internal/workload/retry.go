package workload

import (
	"fmt"

	"nmapsim/internal/sim"
)

// RetryConfig is the client-side recovery loop real latency-critical
// stacks get from TCP: a per-request retransmission timeout that doubles
// after each retransmission up to 10× its initial value, and a bounded
// retry budget. The zero value disables recovery entirely — dropped
// requests stay lost, exactly the seed model's behaviour.
type RetryConfig struct {
	// Timeout is the initial retransmission timeout (RTO) armed when a
	// request is first sent. Zero disables the whole recovery loop.
	Timeout sim.Duration
	// MaxRetries bounds retransmissions per request (not counting the
	// first send). After the budget is spent the next timeout marks the
	// request timed-out. Zero means the default of 3.
	MaxRetries int
}

// The RTO's classic exponential backoff: ×2 per retransmission, capped
// at 10× the initial timeout.
const (
	rtoBackoff = 2
	rtoCap     = 10
)

// Enabled reports whether the recovery loop is active.
func (c RetryConfig) Enabled() bool { return c.Timeout > 0 }

// WithDefaults fills the zero knobs of an enabled config.
func (c RetryConfig) WithDefaults() RetryConfig {
	if !c.Enabled() {
		return c
	}
	if c.MaxRetries == 0 {
		c.MaxRetries = 3
	}
	return c
}

// Validate rejects nonsensical retry parameters.
func (c RetryConfig) Validate() error {
	if c.Timeout < 0 {
		return fmt.Errorf("workload: negative retry timeout %v", c.Timeout)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("workload: negative retry budget %d", c.MaxRetries)
	}
	return nil
}

// RTO returns the retransmission timeout armed for the given attempt
// number (1 = first send): Timeout × 2^(attempt-1), capped at
// 10 × Timeout.
func (c RetryConfig) RTO(attempt int) sim.Duration {
	ceil := rtoCap * c.Timeout
	rto := float64(c.Timeout)
	for i := 1; i < attempt; i++ {
		rto *= rtoBackoff
		if sim.Duration(rto) >= ceil {
			return ceil
		}
	}
	if d := sim.Duration(rto); d < ceil {
		return d
	}
	return ceil
}
