package cluster

// The virtual-time event queue: a calendar queue with one-tick days
// (Brown, 1988). A ring of buckets, whose length is a power of two, holds
// tick t's events in slot t mod len. Every pending event is keyed by
// (deliverAt, seq) — deliverAt picks the bucket, and seq is the order
// events were appended to it, so processing a bucket front to back
// processes events in exactly (deliverAt, seq) order. Since every append
// happens at a deterministic point of the engine's schedule, delivery
// order is a pure function of the seed, never of goroutine timing.
//
// The ring spans ticks [cur, cur+len), where cur is the tick last taken
// by pop: an event scheduled beyond that span doubles the ring, up to
// maxSpan slots (a Model's latencies are unbounded, so the span is
// learned, not declared). Ticks at or beyond cur+maxSpan get a bucket of
// their own in far, kept in tick order, which moves into its slot once
// pop brings its tick within the ring's span — before any event can be
// appended to that tick through the ring, so each tick keeps one bucket
// and its append order. The queue's memory therefore follows the pending
// events, not the model's largest latency. pop scans forward from cur to
// the first non-empty slot, or jumps to the earliest far tick when the
// ring is empty. A processed bucket stays in its slot with its slices'
// capacity, so a steady-state round allocates nothing.
//
// Ticks are compared only by their distance from cur, which a latency
// (an int64 >= 0) keeps in [0, 2^63): virtual time may wrap around int64
// without reordering a single event.

// event is one pending network delivery.
type event struct {
	kind      uint8
	requester int32 // node waiting on the pull
	node      int32 // responder (evServe only)
	color     int32 // sampled color (evReply only)
}

const (
	// evServe: a pull request arrives at its responder, which answers
	// with its current color.
	evServe uint8 = iota
	// evReply: a pull response arrives back at the requester.
	evReply
	// evRetry: a lost pull times out; the requester refires it at a
	// fresh uniform target.
	evRetry
)

// bucket holds everything scheduled for one tick: network events for the
// coordinator and round-start wakes for the worker lanes.
type bucket struct {
	at     int64 // the tick: set for a far bucket when made, by pop otherwise
	events []event
	wakes  []int32
}

const (
	// initialSpan is the ring's starting length: enough for the one-tick
	// wakes of every model and the short delays of common ones.
	initialSpan = 4
	// maxSpan caps the ring's length (a power of two): 64 KiB of slots,
	// and far buckets for events further ahead.
	maxSpan = 1 << 10
)

// eventQueue is the ring of tick buckets plus the far buckets beyond it.
type eventQueue struct {
	ring  []*bucket // ring[t&mask] holds tick t's bucket for t in [cur, cur+len)
	mask  int64
	cur   int64
	far   []*bucket // one bucket per tick >= cur+len(ring), in increasing tick order
	spare []*bucket // empty buckets, with their capacity, for new far ticks
}

func newEventQueue() eventQueue {
	q := eventQueue{}
	q.grow(0)
	return q
}

// bucketAt returns the bucket for tick t >= cur, doubling the ring first
// when t lies beyond its span and within maxSpan of cur.
func (q *eventQueue) bucketAt(t int64) *bucket {
	if d := t - q.cur; d >= int64(len(q.ring)) {
		if d >= maxSpan {
			return q.farAt(t)
		}
		q.grow(d)
	}
	return q.ring[t&q.mask]
}

// farAt returns tick t's far bucket, inserting an empty one in tick order
// if t has none. The ring is at full length whenever far is non-empty, so
// a later growth never has far ticks to take in.
func (q *eventQueue) farAt(t int64) *bucket {
	if len(q.ring) < maxSpan {
		q.grow(maxSpan - 1)
	}
	lo, hi := 0, len(q.far)
	for lo < hi {
		if mid := (lo + hi) / 2; q.far[mid].at-q.cur < t-q.cur {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(q.far) && q.far[lo].at == t {
		return q.far[lo]
	}
	var b *bucket
	if k := len(q.spare); k > 0 {
		b, q.spare = q.spare[k-1], q.spare[:k-1]
	} else {
		b = new(bucket)
	}
	b.at = t
	q.far = append(q.far, nil)
	copy(q.far[lo+1:], q.far[lo:])
	q.far[lo] = b
	return b
}

// pop returns the earliest non-empty bucket, or nil when nothing is
// pending. The bucket stays in its slot; release empties it once
// processed.
func (q *eventQueue) pop() *bucket {
	d := int64(0)
	for ; d < int64(len(q.ring)); d++ {
		if b := q.ring[(q.cur+d)&q.mask]; len(b.events) > 0 || len(b.wakes) > 0 {
			break
		}
	}
	t := q.cur + d
	if d == int64(len(q.ring)) {
		if len(q.far) == 0 {
			return nil
		}
		t = q.far[0].at
	}
	q.advance(t)
	b := q.ring[t&q.mask]
	b.at = t
	return b
}

// advance moves cur to t and moves every far bucket now within the
// ring's span into its slot. Those slots belong to ticks before t, all
// processed, so their buckets are empty and become spares.
func (q *eventQueue) advance(t int64) {
	q.cur = t
	k := 0
	for ; k < len(q.far) && q.far[k].at-t < int64(len(q.ring)); k++ {
		slot := &q.ring[q.far[k].at&q.mask]
		q.spare = append(q.spare, *slot)
		*slot = q.far[k]
	}
	clear(q.far[:k])
	q.far = q.far[k:]
}

// release empties a processed bucket, keeping its slice capacity for the
// tick that next maps to its slot.
func (q *eventQueue) release(b *bucket) {
	b.events = b.events[:0]
	b.wakes = b.wakes[:0]
}

// grow doubles the ring until it spans ticks cur..cur+span (span <
// maxSpan), moving every bucket to its tick's slot in the longer ring and
// filling the new slots with fresh buckets.
func (q *eventQueue) grow(span int64) {
	size := max(len(q.ring), initialSpan)
	for int64(size) <= span {
		size *= 2
	}
	ring := make([]*bucket, size)
	mask := int64(size - 1)
	for d := int64(0); d < int64(len(q.ring)); d++ {
		t := q.cur + d
		ring[t&mask] = q.ring[t&q.mask]
	}
	fresh := make([]bucket, size-len(q.ring))
	for i := range ring {
		if ring[i] == nil {
			ring[i] = &fresh[0]
			fresh = fresh[1:]
		}
	}
	q.ring, q.mask = ring, mask
}
