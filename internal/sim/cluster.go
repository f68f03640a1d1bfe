package sim

import (
	"fmt"

	"github.com/ignorecomply/consensus/internal/cluster"
	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
)

// WithNetwork runs the process on the cluster engine under the given
// network model (and implies EngineCluster): zero-latency lockstep
// (cluster.Zero, the default), or cluster.Net with seeded latency, i.i.d.
// message loss with pull retry, and scheduled partitions. The model value
// is shared by every run of the Runner, including parallel replicas; the
// built-in models are stateless and safe for that, and a custom Model
// must be too.
func WithNetwork(m cluster.Model) Option {
	return optionFunc(func(o *options) { o.network = m })
}

// runCluster runs the message-passing process. Under a lockstep model
// (Zero, or a Net with no delay, jitter, loss or partitions) every pull is
// answered within its round, so a cluster round is exactly an agents
// round: it runs on the agents kernel, on rule and one factory instance
// per further shard, and its message accounting is the lossless law,
// 2·n·h messages per round. Any other model drives a cluster.System
// through the shared round loop, with one factory instance per lane, so
// the message-passing engine honors the full option set (targets, traces,
// observers, adversaries, cancellation) like every other engine. Either
// way every instance is checked like the first: a factory that returns
// nil, a non-NodeRule or a different sample count on a later call fails
// the run with an error, as does a rule that samples no nodes.
func runCluster(rule core.NodeRule, factory core.Factory, start *config.Config, r *rng.RNG, o options) (*Result, error) {
	if net, ok := o.network.(*cluster.Net); ok {
		if err := net.Validate(); err != nil {
			return nil, err
		}
	}
	if h := rule.Samples(); h < 1 {
		return nil, fmt.Errorf("sim: rule %q samples %d nodes per round, the cluster engine needs >= 1", rule.Name(), h)
	}
	if cluster.Lockstep(o.network) {
		res, err := runAgents(rule, factory, start, r, o)
		// A partial (cancelled) result still carries its message accounting.
		if res != nil {
			res.Messages = 2 * int64(start.N()) * int64(rule.Samples()) * int64(res.Rounds)
			if res.Final != nil {
				res.BitsPerMessage = cluster.BitsFor(res.Final.Slots())
			}
		}
		return res, err
	}
	newRule := func() (core.NodeRule, error) { return newInstance(factory, o.engine, rule.Samples()) }
	sys, err := cluster.NewSystem(newRule, start, r, cluster.Options{
		Model:   o.network,
		Workers: o.parallelism(start.N()),
	})
	if err != nil {
		return nil, err
	}
	defer sys.Close()

	res, err := runLoop(sys.Config(), r, o,
		func(int) int { sys.Step(); return 1 },
		sys.Config,
		sys.Colors)
	// A partial (cancelled) result still carries its message accounting.
	if res != nil {
		res.Messages = sys.Messages()
		res.BitsPerMessage = sys.BitsPerMessage()
	}
	return res, err
}
