// Package cluster runs a consensus process as a message-passing system in
// miniature — the Uniform Pull model of the paper (§2.1) with every pull
// request and response an explicit message — executed by a deterministic
// discrete-event network engine instead of a goroutine per node.
//
// A virtual-time scheduler (a ring of tick buckets, events ordered by
// (deliverAt, seq)) multiplexes all nodes over a fixed worker pool. A
// pluggable Model shapes delivery: the default Zero model delivers every
// leg instantly, which makes every node complete exactly one round per
// tick — the paper's synchronous rounds, cross-validated distributionally
// against the exact batch laws — while Net adds seeded latency, i.i.d.
// message loss with pull retry, and scheduled partitions.
//
// Every message carries exactly one color identifier, respecting the
// model's O(log k) message-size constraint, and the runtime counts each
// request when the requester fires it and each response when the
// responder serves it, so experiments report communication cost exactly.
//
// Because delivery order is a pure function of the seed — all random
// streams are derived up front in lane order, events are processed in
// (deliverAt, seq) order, and workers only ever touch disjoint state —
// fixed (seed, workers) reproduces a run bit for bit, the same contract
// the sharded agents engine has. There is no population cap and no
// per-round goroutine churn: the worker lanes are spawned once at
// construction (none at all for a single worker) and live until Close.
//
// The package exposes a steppable System rather than a closed run loop:
// the sim package's Runner drives it round by round so that the engine
// honors the same option set (round budgets, color targets, traces,
// observers, adversaries, context cancellation) as every other engine.
// Between Step calls the system is quiescent from the coordinator's point
// of view — no event is being processed — so a caller (e.g. a §5
// adversary) may mutate Colors and Config coherently.
package cluster

import (
	"errors"
	"fmt"
	"math/bits"
	"sync"

	"github.com/ignorecomply/consensus/internal/config"
	"github.com/ignorecomply/consensus/internal/core"
	"github.com/ignorecomply/consensus/internal/rng"
)

// Options configures a System beyond its factory, start configuration and
// random source.
type Options struct {
	// Model shapes message delivery (nil = Zero: synchronous lockstep).
	Model Model
	// Workers is the size of the worker pool the round-start phase is
	// sharded over (<= 0 means 1). Fixed (seed, workers) reproduces a run
	// bit for bit; changing workers reassigns nodes to streams, so
	// results across worker counts are equal in distribution only.
	Workers int
}

// staged is one node's computed-but-unapplied round update.
type staged struct {
	node, next int32
}

// timedEvent is a worker-deferred event awaiting the coordinator's merge.
type timedEvent struct {
	at int64
	ev event
}

// lane is the per-worker execution state: a random stream and rule
// instance of its own, and out-buffers for deferred events and staged
// updates. The coordinator owns one extra lane whose events skip the
// defer buffer and enter the queue immediately (direct = true), and so
// does the single worker lane of a one-worker system, which runs inline
// on the coordinator's goroutine.
type lane struct {
	stream   *rng.RNG
	rule     core.NodeRule
	deferred []timedEvent
	staged   []staged
	messages int64
	direct   bool
}

// System is a population of virtual nodes advanced one synchronous round
// at a time by a discrete-event scheduler. A System must be released with
// Close.
type System struct {
	cfg    *config.Config
	counts []int // live counts view, refetched every Step (slots may grow)
	colors []int // colors[i] = slot of node i; updates apply at tick ends
	n, h   int

	model Model
	retry int64

	now     int64 // current virtual tick
	target  int   // rounds every node must have completed when Step returns
	behind  int   // nodes still short of target
	done    []int32
	got     []int32 // samples collected in each node's current round
	samples []int   // n·h strided sample buffer

	queue eventQueue

	p        int
	lanes    []lane // p worker lanes + the coordinator lane at index p
	curWakes []int32
	start    []chan struct{}
	phaseWG  sync.WaitGroup
	poolWG   sync.WaitGroup
	closed   bool

	messages int64
}

// NewSystem builds a system over start's population. factory provides one
// fresh rule instance per lane (workers + coordinator) and is the place
// engine-level type errors surface: a factory returning an error on any
// instantiation fails construction instead of panicking mid-run. Streams
// are derived from base in lane order, then the initial round-0 wakes are
// scheduled; the caller's base stream is advanced deterministically.
func NewSystem(factory func() (core.NodeRule, error), start *config.Config, base *rng.RNG, opts Options) (*System, error) {
	if factory == nil || start == nil || base == nil {
		return nil, errors.New("cluster: factory, start and rng must be non-nil")
	}
	model := opts.Model
	if model == nil {
		model = Zero{}
	}
	if net, ok := model.(*Net); ok {
		if err := net.Validate(); err != nil {
			return nil, err
		}
	}
	n := start.N()
	p := opts.Workers
	if p < 1 {
		p = 1
	}
	if p > n {
		p = n
	}

	s := &System{
		cfg:    start.Clone(),
		colors: start.Nodes(),
		n:      n,
		model:  model,
		retry:  model.RetryAfter(),
		done:   make([]int32, n),
		got:    make([]int32, n),
		queue:  newEventQueue(),
		p:      p,
		lanes:  make([]lane, p+1),
	}
	s.counts = s.cfg.CountsView()
	if s.retry < 1 {
		s.retry = 1
	}

	for li := range s.lanes {
		rule, err := factory()
		if err != nil {
			return nil, fmt.Errorf("cluster: rule factory: %w", err)
		}
		if rule == nil {
			return nil, errors.New("cluster: rule factory returned nil")
		}
		if li == 0 {
			s.h = rule.Samples()
			if s.h < 1 {
				return nil, fmt.Errorf("cluster: rule %q samples %d nodes per round, need >= 1", rule.Name(), s.h)
			}
		} else if rule.Samples() != s.h {
			return nil, fmt.Errorf("cluster: rule factory returned instances with differing sample counts (%d vs %d)", rule.Samples(), s.h)
		}
		s.lanes[li] = lane{
			stream: base.Derive(uint64(li)),
			rule:   rule,
			direct: li == p || p == 1,
		}
	}
	s.samples = make([]int, n*s.h)

	// Every node starts its first round at tick 0.
	b := s.queue.bucketAt(0)
	for i := 0; i < n; i++ {
		b.wakes = append(b.wakes, int32(i))
	}

	if p > 1 {
		s.start = make([]chan struct{}, p)
		for w := 0; w < p; w++ {
			s.start[w] = make(chan struct{}, 1)
			s.poolWG.Add(1)
			go s.workerLoop(w)
		}
	}
	return s, nil
}

// Step advances virtual time until every node has completed one more
// round than the previous Step required. Under the Zero model that is
// exactly one tick — the synchronous round of the paper; under latency
// models nodes desynchronize and Step returns when the slowest node
// crosses the round barrier (faster nodes may be further ahead). On
// return Config reflects the live support counts.
func (s *System) Step() {
	// Re-fetch the counts view: a §5 adversary may have rebuilt the
	// configuration with an extra (injected) slot between rounds.
	s.counts = s.cfg.CountsView()
	s.target++
	s.behind = 0
	for i := range s.done {
		if int(s.done[i]) < s.target {
			s.behind++
		}
	}
	for s.behind > 0 {
		b := s.queue.pop()
		if b == nil {
			// Unreachable: every incomplete round has a pending event
			// (lost pulls schedule retries).
			panic("cluster: event queue drained with rounds outstanding")
		}
		s.processBucket(b)
	}
}

// processBucket runs one virtual tick: the coordinator delivers the
// tick's network events in (deliverAt, seq) order, the worker lanes fire
// the tick's round-starts in parallel against the start-of-tick color
// snapshot, and the barrier applies every staged update and merges the
// deferred events — so color reads within a tick never observe same-tick
// writes, the discrete-event generalization of the synchronous round.
func (s *System) processBucket(b *bucket) {
	s.now = b.at
	coord := &s.lanes[s.p]
	// Phase 1: deliver. Same-tick follow-ups (a zero-latency response to
	// a delivered request) append to the bucket and are drained in order.
	for qi := 0; qi < len(b.events); qi++ {
		ev := b.events[qi]
		switch ev.kind {
		case evServe:
			s.serve(coord, ev.node, ev.requester)
		case evReply:
			s.deliver(coord, ev.requester, ev.color)
		case evRetry:
			s.firePull(coord, ev.requester)
		}
	}
	// Phase 2: round-starts, sharded over the worker pool. Workers read
	// the immutable color snapshot and write only their own nodes' sample
	// state and their own lane (a single lane, run inline, also emits into
	// the queue).
	if len(b.wakes) > 0 {
		if s.p == 1 {
			s.runWakes(&s.lanes[0], b.wakes)
		} else {
			s.curWakes = b.wakes
			s.phaseWG.Add(s.p)
			for _, ch := range s.start {
				ch <- struct{}{}
			}
			s.phaseWG.Wait()
		}
	}
	// Phase 3: the tick barrier. Coordinator lane first, then workers in
	// lane order — a fixed order, so next-tick wake lists (and therefore
	// every later draw) are scheduling-independent.
	s.applyLane(coord)
	for w := 0; w < s.p; w++ {
		s.applyLane(&s.lanes[w])
	}
	s.queue.release(b)
}

// workerLoop is one pool worker: each release processes the current wake
// list's chunk for its lane.
func (s *System) workerLoop(w int) {
	defer s.poolWG.Done()
	for range s.start[w] {
		wakes := s.curWakes
		lo := w * len(wakes) / s.p
		hi := (w + 1) * len(wakes) / s.p
		s.runWakes(&s.lanes[w], wakes[lo:hi])
		s.phaseWG.Done()
	}
}

// runWakes starts one round for every node in wakes on the given lane.
//
//consensus:hotpath
func (s *System) runWakes(ln *lane, wakes []int32) {
	for _, i := range wakes {
		for j := 0; j < s.h; j++ {
			s.firePull(ln, i)
		}
	}
}

// firePull fires one pull request from node i at the current tick: the
// request is counted as sent, the target drawn uniformly (self included),
// and the request either dropped (scheduling a retry), delayed
// (scheduling its arrival), or served on the spot.
//
//consensus:hotpath
func (s *System) firePull(ln *lane, i int32) {
	ln.messages++ // the request leaves the requester now
	t := int32(ln.stream.IntN(s.n))
	if s.model.Drop(int(i), int(t), s.n, s.now, ln.stream) {
		s.emit(ln, s.now+s.retry, event{kind: evRetry, requester: i})
		return
	}
	if d := s.model.Latency(s.now, ln.stream); d > 0 {
		s.emit(ln, s.now+d, event{kind: evServe, requester: i, node: t})
		return
	}
	s.serve(ln, t, i)
}

// serve delivers a pull request to responder: the response — carrying the
// responder's color as of this tick — is counted as sent, then dropped,
// delayed, or delivered on the spot.
//
//consensus:hotpath
func (s *System) serve(ln *lane, responder, requester int32) {
	ln.messages++ // the response leaves the responder now
	color := int32(s.colors[responder])
	if s.model.Drop(int(responder), int(requester), s.n, s.now, ln.stream) {
		s.emit(ln, s.now+s.retry, event{kind: evRetry, requester: requester})
		return
	}
	if d := s.model.Latency(s.now, ln.stream); d > 0 {
		s.emit(ln, s.now+d, event{kind: evReply, requester: requester, color: color})
		return
	}
	s.deliver(ln, requester, color)
}

// deliver hands a pulled color to its requester; the h-th sample of a
// round computes the node's update, staged until the tick barrier.
//
//consensus:hotpath
func (s *System) deliver(ln *lane, req, color int32) {
	base := int(req) * s.h
	g := int(s.got[req])
	s.samples[base+g] = int(color)
	g++
	s.got[req] = int32(g)
	if g == s.h {
		next := ln.rule.Update(s.colors[req], s.samples[base:base+s.h], ln.stream)
		ln.staged = append(ln.staged, staged{node: req, next: int32(next)})
	}
}

// emit schedules an event. Direct lanes append to the queue at once —
// the coordinator's same-tick follow-ups land in the bucket being
// processed. Pool workers defer to their out-buffer, merged at the tick
// barrier in lane order. A one-worker system's lane emits directly: it
// runs after the coordinator's deliveries and before the barrier on the
// same goroutine, and its events are always for future ticks, so the
// queue receives them in the order a deferred merge would append them.
//
//consensus:hotpath
func (s *System) emit(ln *lane, at int64, ev event) {
	if !ln.direct {
		ln.deferred = append(ln.deferred, timedEvent{at: at, ev: ev})
		return
	}
	b := s.queue.bucketAt(at)
	b.events = append(b.events, ev)
}

// applyLane folds one lane into the system at the tick barrier: staged
// updates move colors and counts, completed nodes wake next tick, and
// deferred events merge into the queue — all in lane order.
//
//consensus:hotpath
func (s *System) applyLane(ln *lane) {
	if len(ln.staged) > 0 {
		next := s.queue.bucketAt(s.now + 1)
		for _, st := range ln.staged {
			i := st.node
			s.counts[s.colors[i]]--
			s.counts[st.next]++
			s.colors[i] = int(st.next)
			s.got[i] = 0
			s.done[i]++
			if int(s.done[i]) == s.target {
				s.behind--
			}
			next.wakes = append(next.wakes, i)
		}
		ln.staged = ln.staged[:0]
	}
	for _, te := range ln.deferred {
		b := s.queue.bucketAt(te.at)
		b.events = append(b.events, te.ev)
	}
	ln.deferred = ln.deferred[:0]
	s.messages += ln.messages
	ln.messages = 0
}

// Config returns the live aggregate configuration (maintained across
// every Step). Callers that mutate it must keep Colors consistent.
func (s *System) Config() *config.Config { return s.cfg }

// Colors returns the live per-node slot assignment. The slice is owned by
// the system; it may be mutated only between Step calls.
func (s *System) Colors() []int { return s.colors }

// Messages returns the total protocol messages sent so far: every pull
// request counts when its requester fires it, every response when its
// responder serves it — messages lost in transit were still sent.
func (s *System) Messages() int64 { return s.messages }

// BitsPerMessage is the size of one message payload: a color identifier,
// ⌈log₂(slots)⌉ bits (the model's O(log k) constraint). It is computed
// from the live slot space, which an adversary may have grown mid-run by
// injecting a color.
func (s *System) BitsPerMessage() int { return BitsFor(s.cfg.Slots()) }

// Close releases the worker pool. It is idempotent and must be called
// between rounds (never while a Step is in flight).
func (s *System) Close() {
	if s.closed {
		return
	}
	s.closed = true
	for _, ch := range s.start {
		close(ch)
	}
	s.poolWG.Wait()
}

// BitsFor returns ⌈log₂(k)⌉ (minimum 1): the bits needed to name one of k
// colors in a message.
func BitsFor(k int) int {
	if k <= 2 {
		return 1
	}
	return bits.Len(uint(k - 1))
}
