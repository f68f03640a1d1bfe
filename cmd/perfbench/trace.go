package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// span is one traced interval at a layer boundary, recorded by the
// benchmark around a call into a layer's public API (or from the event
// timestamps that API reports). Spans of one document or request share
// Root; Parent is 0 for a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Root   int    `json:"root"`
	Name   string `json:"name"`
	Family string `json:"family,omitempty"`
	// Start and End are nanoseconds since the tracer's origin.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory for one traced pass. A nil *tracer records
// nothing, so the untraced pass runs the same code without tracing cost.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// add records a span and returns its id (0 on a nil tracer). A root span
// (parent 0) is its own root.
func (t *tracer) add(name, family string, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	root := id
	if parent > 0 {
		root = t.spans[parent-1].Root
	}
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Root: root, Name: name, Family: family,
		Start: start.Sub(t.origin).Nanoseconds(), End: end.Sub(t.origin).Nanoseconds(),
	})
	return id
}

// traceIdle records, for each closed-loop client, the time from running
// out of work to the end of the pass, when the other client finishes.
func traceIdle(t *tracer, finished []time.Time, end time.Time) {
	for _, f := range finished {
		t.add("client.idle", "", 0, f, end)
	}
}

// leafTime sums the durations of spans that have no children: the time
// the trace attributes to some layer without counting nested spans twice.
func (t *tracer) leafTime() time.Duration {
	hasChild := make(map[int]bool, len(t.spans))
	for _, s := range t.spans {
		if s.Parent > 0 {
			hasChild[s.Parent] = true
		}
	}
	var sum time.Duration
	for _, s := range t.spans {
		if !hasChild[s.ID] {
			sum += s.dur()
		}
	}
	return sum
}

// byName returns the durations of every span with the given name (and
// family, when family is non-empty).
func (t *tracer) byName(name, family string) []time.Duration {
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && (family == "" || s.Family == family) {
			out = append(out, s.dur())
		}
	}
	return out
}

// write stores the spans as JSON lines at path.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty sample).
func quantile(xs []time.Duration, q float64) time.Duration {
	if len(xs) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func total(xs []time.Duration) time.Duration {
	var sum time.Duration
	for _, x := range xs {
		sum += x
	}
	return sum
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// meanMS is the mean of xs in milliseconds (0 for an empty sample).
func meanMS(xs []time.Duration) float64 {
	if len(xs) == 0 {
		return 0
	}
	return ms(total(xs)) / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procSample is a snapshot of the process's own resource counters.
type procSample struct {
	cpu time.Duration
	mem runtime.MemStats
}

func sampleProc() procSample {
	var p procSample
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	runtime.ReadMemStats(&p.mem)
	return p
}

// procMetrics are the Go runtime's costs between two samples.
func procMetrics(a, b procSample) map[string]float64 {
	return map[string]float64{
		"proc.cpu_s":       (b.cpu - a.cpu).Seconds(),
		"proc.alloc_mb":    float64(b.mem.TotalAlloc-a.mem.TotalAlloc) / (1 << 20),
		"proc.gc_cycles":   float64(b.mem.NumGC - a.mem.NumGC),
		"proc.gc_pause_ms": float64(b.mem.PauseTotalNs-a.mem.PauseTotalNs) / 1e6,
	}
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM).
func peakRSSMB() (float64, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// cpuTimes is the aggregate "cpu" line of /proc/stat: steal ticks and all
// ticks.
type cpuTimes struct{ steal, all uint64 }

func readCPUTimes() (cpuTimes, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return cpuTimes{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var t cpuTimes
	for i, f := range fields[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return cpuTimes{}, fmt.Errorf("parse /proc/stat field %q: %w", f, err)
		}
		// guest and guest_nice (fields 9, 10) are already counted in user
		// and nice.
		if i < 8 {
			t.all += v
		}
		if i == 7 {
			t.steal = v
		}
	}
	return t, nil
}

// stealFrac is the share of all CPU ticks between a and b stolen by the
// hypervisor.
func stealFrac(a, b cpuTimes) float64 {
	return ratio(float64(b.steal-a.steal), float64(b.all-a.all))
}
