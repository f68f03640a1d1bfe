package cluster

import (
	"fmt"
	"testing"

	"github.com/ignorecomply/consensus/internal/rng"
)

// TestEventQueueOrder drives the queue the way the engine does — pop a
// tick, schedule into it and ahead of it, release it — and checks that
// ticks come out in increasing order with each tick's events in append
// order. The horizon widens with every pop: at stride 1 the ring doubles
// again and again while events sit in wrapped-around slots, then passes
// maxSpan, with one event a pop on either side of the ring's edge; larger
// strides put most events in far buckets, shared by several appends,
// which move into the ring as time advances; at stride
// 2^40 the ring is empty between ticks and pop jumps.
func TestEventQueueOrder(t *testing.T) {
	for _, stride := range []int64{1, 37, 1 << 40} {
		t.Run(fmt.Sprint("stride-", stride), func(t *testing.T) {
			r := rng.New(7)
			q := newEventQueue()
			want := map[int64][]int32{} // tick -> requesters, in append order
			seq := int32(0)
			schedule := func(at int64) {
				b := q.bucketAt(at)
				b.events = append(b.events, event{requester: seq})
				want[at] = append(want[at], seq)
				seq++
			}
			schedule(0)
			last, jumps := int64(-1), 0
			for pops := 0; pops < 1500; pops++ {
				b := q.pop()
				if b == nil {
					t.Fatal("queue drained with events pending")
				}
				if b.at <= last {
					t.Fatalf("tick %d popped after tick %d", b.at, last)
				}
				if b.at-last >= maxSpan {
					jumps++
				}
				last = b.at
				for k := r.IntN(4); k >= 0; k-- {
					schedule(b.at + 1 + stride*int64(r.IntN(1+pops)))
				}
				if stride < maxSpan {
					// Straddle the ring's edge: a tick gets far appends
					// first and ring appends once it is in span.
					schedule(b.at + maxSpan - 4 + int64(r.IntN(8)))
				}
				schedule(b.at) // a same-tick follow-up joins the bucket in flight
				w := want[b.at]
				if len(b.events) != len(w) {
					t.Fatalf("tick %d: %d events, want %d", b.at, len(b.events), len(w))
				}
				for i, ev := range b.events {
					if ev.requester != w[i] {
						t.Fatalf("tick %d: event %d is %d, want %d", b.at, i, ev.requester, w[i])
					}
				}
				delete(want, b.at)
				q.release(b)
			}
			if len(q.ring) != maxSpan {
				t.Errorf("ring of %d slots, want %d after events 1500 ticks ahead", len(q.ring), maxSpan)
			}
			if len(q.far) == 0 {
				t.Error("no far bucket pending: the far path went untested")
			}
			if stride > maxSpan && jumps == 0 {
				t.Error("pop never jumped past an empty ring")
			}
		})
	}
}
