package cluster

import (
	"fmt"

	"github.com/ignorecomply/consensus/internal/rng"
)

// Model shapes message delivery in the event-driven network engine: every
// pull request and response is one message leg, and the model decides how
// long the leg takes (Latency), whether it is lost (Drop), and how long a
// node waits before retrying a failed pull (RetryAfter).
//
// Implementations must be pure: any randomness comes from the stream the
// engine passes in, the number of draws per call must not depend on
// anything but the model's own configuration, and calls must be safe from
// multiple goroutines concurrently (the engine invokes the model from its
// worker lanes, each with its own stream). Those properties are what make
// a run a pure function of (seed, workers).
type Model interface {
	// Name identifies the model ("zero", "net").
	Name() string
	// Latency returns the one-way delivery delay of one message leg sent
	// at tick t, in whole ticks >= 0.
	Latency(t int64, r *rng.RNG) int64
	// Drop reports whether the leg from src to dst (of n nodes), sent at
	// tick t, is lost in transit.
	Drop(src, dst, n int, t int64, r *rng.RNG) bool
	// RetryAfter returns how many ticks a node waits after a lost pull
	// before retrying with a fresh uniform target (clamped to >= 1).
	RetryAfter() int64
}

// Zero is the zero-latency, lossless lockstep model: every leg delivers
// instantly, so every node completes exactly one round per tick and the
// engine reproduces the paper's synchronous Uniform Pull rounds — the
// semantics the batch and agents engines implement, cross-validated in
// internal/sim.
type Zero struct{}

// Name implements Model.
func (Zero) Name() string { return "zero" }

// Latency implements Model: legs deliver instantly.
func (Zero) Latency(int64, *rng.RNG) int64 { return 0 }

// Drop implements Model: nothing is lost.
func (Zero) Drop(int, int, int, int64, *rng.RNG) bool { return false }

// RetryAfter implements Model (unused: nothing is ever dropped).
func (Zero) RetryAfter() int64 { return 1 }

// Partition is a scheduled communication split: during ticks
// [From, Until) the population divides into Groups contiguous id blocks
// and every leg crossing blocks is dropped deterministically. Lost pulls
// retry with fresh uniform targets, and a pull may land inside the
// sender's own block (self included), so progress continues within each
// block and the split heals at Until.
type Partition struct {
	// From is the first tick of the split window.
	From int64
	// Until is the first tick after the window.
	Until int64
	// Groups is the number of contiguous id blocks (>= 2).
	Groups int
}

// blocks reports whether the partition severs the src -> dst leg at t.
func (pt *Partition) blocks(src, dst, n int, t int64) bool {
	if t < pt.From || t >= pt.Until {
		return false
	}
	return src*pt.Groups/n != dst*pt.Groups/n
}

// Net is the configurable network model: a fixed per-leg delay plus
// uniform jitter, i.i.d. per-leg loss, and scheduled partitions. The zero
// value behaves exactly like Zero (and draws nothing from the stream).
type Net struct {
	// Delay is the fixed per-leg delivery delay in ticks.
	Delay int64
	// Jitter adds a uniform extra delay in [0, Jitter] ticks per leg.
	Jitter int64
	// Loss is the i.i.d. per-leg loss probability in [0, 1).
	Loss float64
	// Retry is the pull-retry timeout in ticks (0 means 1).
	Retry int64
	// Partitions are scheduled communication splits.
	Partitions []Partition
}

// Validate checks the model's parameters.
func (m *Net) Validate() error {
	if m.Delay < 0 {
		return fmt.Errorf("cluster: network delay must be >= 0, got %d", m.Delay)
	}
	if m.Jitter < 0 {
		return fmt.Errorf("cluster: network jitter must be >= 0, got %d", m.Jitter)
	}
	// Loss 1 would retry forever: no pull could ever complete.
	if m.Loss < 0 || m.Loss >= 1 {
		return fmt.Errorf("cluster: network loss must be in [0, 1), got %v", m.Loss)
	}
	if m.Retry < 0 {
		return fmt.Errorf("cluster: network retry must be >= 0, got %d", m.Retry)
	}
	for i := range m.Partitions {
		pt := &m.Partitions[i]
		if pt.From < 0 || pt.Until <= pt.From {
			return fmt.Errorf("cluster: partition %d: need 0 <= from < until, got [%d, %d)", i, pt.From, pt.Until)
		}
		if pt.Groups < 2 {
			return fmt.Errorf("cluster: partition %d: groups must be >= 2, got %d", i, pt.Groups)
		}
	}
	return nil
}

// Name implements Model.
func (m *Net) Name() string { return "net" }

// Latency implements Model.
func (m *Net) Latency(_ int64, r *rng.RNG) int64 {
	d := m.Delay
	if m.Jitter > 0 {
		d += int64(r.IntN(int(m.Jitter) + 1))
	}
	return d
}

// Drop implements Model: a scheduled partition severs the leg
// deterministically, otherwise the i.i.d. loss coin decides.
func (m *Net) Drop(src, dst, n int, t int64, r *rng.RNG) bool {
	for i := range m.Partitions {
		if m.Partitions[i].blocks(src, dst, n, t) {
			return true
		}
	}
	return m.Loss > 0 && r.Bernoulli(m.Loss)
}

// RetryAfter implements Model.
func (m *Net) RetryAfter() int64 {
	if m.Retry < 1 {
		return 1
	}
	return m.Retry
}

// Lockstep reports whether the model provably delivers every leg
// instantly and loses none: nil (the default Zero), Zero, or a Net with no
// delay, jitter, loss or partitions. Every node then completes exactly one
// round per tick, pulling uniform targets against the start-of-tick
// colors, so a run is the synchronous round that the sim package's agents
// engine implements, and that is where the sim package runs it.
func Lockstep(m Model) bool {
	switch m := m.(type) {
	case nil, Zero:
		return true
	case *Net:
		return m.Delay == 0 && m.Jitter == 0 && m.Loss == 0 && len(m.Partitions) == 0
	}
	return false
}
