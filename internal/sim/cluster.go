package sim

import (
	"errors"

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

// runCluster drives a cluster.System through the shared round loop, so the
// message-passing engine honors the full option set (targets, traces,
// observers, adversaries, cancellation) like every other engine.
func runCluster(factory func() (core.NodeRule, error), start *config.Config, r *rng.RNG, o options) (*Result, error) {
	if o.behaviors != nil {
		return nil, errors.New("sim: node behaviors need the agents engine")
	}
	sys, err := cluster.NewSystem(factory, start, r, cluster.Options{
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
