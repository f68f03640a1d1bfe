package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// A speed probe times a fixed kernel on every CPU the process may use,
// about 30 times a second each, while a workload runs. On a shared host a
// vCPU's speed swings by up to 2x for seconds at a time (another tenant's
// thread on the same physical core, frequency changes), each vCPU on its
// own, and the process cannot see it: its CPU time grows with its wall
// time, and steal stays near 0. The probe's kernel, which is not
// repository code, slows with the machine, so probeNominal / its measured
// time is how fast that CPU ran at that moment. A CPU's samples weigh by
// how busy the CPU was since its previous sample (/proc/stat), so the
// speed of an interval is that of the CPUs the work ran on. Multiplying a
// measured time by that speed gives the time at nominal speed: a change to
// the repository's code moves it, a change in the machine's speed does not.

// probeIters sizes the probe kernel: about 0.1 ms on the sizing machine.
const probeIters = 1 << 15

// probeNominal is the kernel's time at nominal speed, about its median on
// the sizing machine: scaled times read like that machine's wall times.
const probeNominal = 85 * time.Microsecond

// probeEvery is the pause between two kernels on one CPU.
const probeEvery = 15 * time.Millisecond

// probeWindow is the shortest interval a speed is averaged over; shorter
// intervals are widened around their middle. The machine's fast and slow
// spells last seconds, while a single sample's busy weight counts 10 ms
// ticks and is coarse: over 1 s a CPU gives about 60 samples. In sizing,
// 1 s left the smallest worst spread of the latency percentiles among
// 0.12, 0.5, 1 and 2 s (NOTES.md).
const probeWindow = time.Second

type probeSample struct {
	at time.Time
	// speed is probeNominal / the kernel's measured time.
	speed float64
	// busy is the share of the time since the CPU's previous sample that
	// the CPU was busy (0 for the first sample).
	busy float64
}

type speedProbe struct {
	stop    chan struct{}
	wg      sync.WaitGroup
	mu      sync.Mutex
	samples []probeSample
}

// startProbe starts one probe thread per CPU the process may run on,
// pinned to that CPU where the kernel allows it.
func startProbe() *speedProbe {
	cpus := allowedCPUs()
	p := &speedProbe{stop: make(chan struct{})}
	p.wg.Add(len(cpus))
	for _, cpu := range cpus {
		go p.loop(cpu)
	}
	return p
}

// loop runs the kernel on one CPU until stopped. The goroutine keeps its
// pinned thread locked to the end, so the runtime discards the thread
// instead of handing its affinity to other goroutines.
func (p *speedProbe) loop(cpu int) {
	defer p.wg.Done()
	runtime.LockOSThread()
	pinThread(cpu)
	table := make([]uint32, 1<<12)
	tick := time.NewTicker(probeEvery)
	defer tick.Stop()
	var prevBusy, prevAll uint64
	for {
		t0 := time.Now()
		table[0] += probeKernel(table)
		t1 := time.Now()
		s := probeSample{at: t1, speed: float64(probeNominal) / float64(t1.Sub(t0)+1)}
		if busy, all, ok := cpuBusy(cpu); ok {
			if prevAll > 0 && all > prevAll {
				s.busy = float64(busy-prevBusy) / float64(all-prevAll)
			}
			prevBusy, prevAll = busy, all
		}
		p.mu.Lock()
		p.samples = append(p.samples, s)
		p.mu.Unlock()
		select {
		case <-p.stop:
			return
		case <-tick.C:
		}
	}
}

// probeKernel runs four independent xorshift lanes, each doing a
// read-modify-write of a random entry in a 16 KiB table and a
// floating-point multiply-add per step. It is throughput-bound, like the
// simulators' sampling loops, so it slows when another thread competes for
// the core's execution ports; a single dependent chain slows less, and a
// table larger than L1 reads as slow when the work evicted it. Of the four
// kernels compared in sizing (NOTES.md), this one, with a busy-weighted
// mean, left the smallest run-to-run spread.
func probeKernel(table []uint32) uint32 {
	x0, x1, x2, x3 := uint32(2463534242), uint32(1013904223), uint32(2891336453), uint32(3624381081)
	f0, f1, f2, f3 := 1.0, 1.0, 1.0, 1.0
	mask := uint32(len(table) - 1)
	for i := 0; i < probeIters/4; i++ {
		x0 ^= x0 << 13
		x1 ^= x1 << 13
		x2 ^= x2 << 13
		x3 ^= x3 << 13
		x0 ^= x0 >> 17
		x1 ^= x1 >> 17
		x2 ^= x2 >> 17
		x3 ^= x3 >> 17
		x0 ^= x0 << 5
		x1 ^= x1 << 5
		x2 ^= x2 << 5
		x3 ^= x3 << 5
		table[x0&mask] += x1
		table[x1&mask] += x2
		table[x2&mask] += x3
		table[x3&mask] += x0
		f0 = f0*0.999999 + float64(x0&0xff)
		f1 = f1*0.999999 + float64(x1&0xff)
		f2 = f2*0.999999 + float64(x2&0xff)
		f3 = f3*0.999999 + float64(x3&0xff)
	}
	return x0 ^ x1 ^ x2 ^ x3 ^ uint32(f0+f1+f2+f3)
}

// close stops the probe threads and waits for them to end.
func (p *speedProbe) close() {
	close(p.stop)
	p.wg.Wait()
}

// speed is the busy-weighted mean speed of the samples taken in [a, b],
// widened to probeWindow around its middle when shorter: the plain mean
// when no CPU was busy, and 1 when there are no samples.
func (p *speedProbe) speed(a, b time.Time) float64 {
	if b.Sub(a) < probeWindow {
		mid := a.Add(b.Sub(a) / 2)
		a, b = mid.Add(-probeWindow/2), mid.Add(probeWindow/2)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var sum, wsum, weights float64
	n := 0
	for _, s := range p.samples {
		if !s.at.Before(a) && !s.at.After(b) {
			sum += s.speed
			wsum += s.busy * s.speed
			weights += s.busy
			n++
		}
	}
	switch {
	case weights > 0:
		return wsum / weights
	case n > 0:
		return sum / float64(n)
	}
	return 1
}

// scale returns d, which started at start, at nominal speed.
func (p *speedProbe) scale(start time.Time, d time.Duration) time.Duration {
	return time.Duration(float64(d) * p.speed(start, start.Add(d)))
}

// cpuBusy reads one CPU's busy and total ticks from /proc/stat: busy is
// user, nice, system, irq and softirq; total adds idle, iowait and steal.
func cpuBusy(cpu int) (busy, total uint64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	prefix := "cpu" + strconv.Itoa(cpu) + " "
	for _, line := range strings.Split(string(data), "\n") {
		rest, found := strings.CutPrefix(line, prefix)
		if !found {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) < 8 {
			return 0, 0, false
		}
		for i, f := range fields[:8] {
			v, err := strconv.ParseUint(f, 10, 64)
			if err != nil {
				return 0, 0, false
			}
			total += v
			if i != 3 && i != 4 && i != 7 {
				busy += v
			}
		}
		return busy, total, true
	}
	return 0, 0, false
}

// allowedCPUs lists the CPUs in the process's affinity mask, or stands in
// 0..NumCPU-1 when the mask cannot be read.
func allowedCPUs() []int {
	var mask [16]uint64
	var cpus []int
	_, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if e == 0 {
		for i := 0; i < len(mask)*64; i++ {
			if mask[i/64]&(1<<(i%64)) != 0 {
				cpus = append(cpus, i)
			}
		}
	}
	if len(cpus) == 0 {
		for i := 0; i < runtime.NumCPU(); i++ {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// pinThread restricts the calling thread to one CPU. When the kernel
// refuses, the probe measures whichever CPU the thread runs on.
func pinThread(cpu int) {
	var mask [16]uint64
	mask[cpu/64] = 1 << (cpu % 64)
	syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
}
