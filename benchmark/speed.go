package main

import (
	"math"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// The reference machine's speed drifts: the host shares its cores with
// other guests, and the same work can take 1.5 times the CPU time a
// minute later, or a second later. A speed meter follows the drift.
// Every meterPeriod, on a thread of its own on the workload's CPU, it
// times three fixed kernels that use the core the way the program does:
// dependent integer arithmetic, branchy sorting, and hashed lookups in a
// table larger than the L2 cache. The speed factor at a moment is the
// geometric mean, over the kernels, of each one's median time across the
// meterWindow samples nearest that moment, over its time on the
// reference machine in a quiet period. The end-to-end timings are read
// on a reference clock: the process CPU clock, with each stretch of CPU
// time divided by the speed factor at that moment. The kernels are the
// benchmark's own code, so a change to the program moves the timings
// and never the factor. README.md (Noise) has the measurements behind
// the period and the window.

const (
	meterPeriod = 100 * time.Millisecond
	meterWindow = 10
)

// kernelRefNS is each kernel's median thread CPU time, in ns, on the
// reference machine in a quiet period (the fastest of forty runs'
// medians): ilp, sort, lookup.
var kernelRefNS = [3]float64{180e3, 600e3, 830e3}

// meterCPU is the CPU time, in ns, every speed meter has used so far;
// cpuSeconds leaves it out.
var meterCPU atomic.Int64

// meterSample is one timing of the kernels.
type meterSample struct {
	cpu float64    // cpuSeconds when the sample began
	ns  [3]float64 // each kernel's thread CPU time
}

// speedMeter samples the kernels in the background until closed.
type speedMeter struct {
	k       *kernels
	mu      sync.Mutex
	samples []meterSample
	stop    chan struct{}
	stopped sync.Once
	done    chan struct{}
}

// startMeter starts a meter and returns once it holds its first sample.
func startMeter() *speedMeter {
	m := &speedMeter{k: newKernels(), stop: make(chan struct{}), done: make(chan struct{})}
	ready := make(chan struct{})
	go m.loop(ready)
	<-ready
	return m
}

// loop runs on a locked thread, so that the thread's CPU clock times the
// kernels alone and totals everything the meter costs.
func (m *speedMeter) loop(ready chan struct{}) {
	defer close(m.done)
	runtime.LockOSThread()
	tick := time.NewTicker(meterPeriod)
	defer tick.Stop()
	for c0 := threadCPUNS(); ; {
		m.sample()
		c1 := threadCPUNS()
		meterCPU.Add(c1 - c0)
		c0 = c1
		if ready != nil {
			close(ready)
			ready = nil
		}
		select {
		case <-m.stop:
			return
		case <-tick.C:
		}
	}
}

func (m *speedMeter) sample() {
	s := meterSample{cpu: cpuSeconds()}
	for i, kernel := range []func(){m.k.ilp, m.k.sort, m.k.lookup} {
		t0 := threadCPUNS()
		kernel()
		s.ns[i] = float64(threadCPUNS() - t0)
	}
	m.mu.Lock()
	m.samples = append(m.samples, s)
	m.mu.Unlock()
}

// close stops the meter, waits for its thread to finish, and returns the
// reference clock its samples define. Calling it again stops nothing
// and returns an equal clock.
func (m *speedMeter) close() *refClock {
	m.stopped.Do(func() {
		close(m.stop)
		<-m.done
	})
	n := len(m.samples)
	c := &refClock{at: make([]float64, n), factor: make([]float64, n+1)}
	for i, s := range m.samples {
		c.at[i] = s.cpu
	}
	// Stretch i runs from sample i-1 to sample i; its factor comes from
	// the meterWindow samples around it.
	xs := make([]float64, 0, meterWindow)
	for i := range c.factor {
		lo := max(0, min(i-meterWindow/2, n-meterWindow))
		hi := min(n, lo+meterWindow)
		logSum := 0.0
		for k, ref := range kernelRefNS {
			xs = xs[:0]
			for _, s := range m.samples[lo:hi] {
				xs = append(xs, s.ns[k])
			}
			slices.Sort(xs)
			logSum += math.Log(quantile(xs, 0.5) / ref)
		}
		c.factor[i] = math.Exp(logSum / float64(len(kernelRefNS)))
	}
	return c
}

// refClock converts process CPU time into CPU time on the reference
// machine in a quiet period.
type refClock struct {
	at     []float64 // cpuSeconds of each sample, ascending
	factor []float64 // speed factor of each stretch between samples; above 1 is slower
}

// seconds is the reference time of the CPU time s spans.
func (c *refClock) seconds(s cpuSpan) float64 {
	i := sort.SearchFloat64s(c.at, s.start)
	t, from := 0.0, s.start
	for ; i < len(c.at) && c.at[i] < s.end; i++ {
		t += (c.at[i] - from) / c.factor[i]
		from = c.at[i]
	}
	return t + (s.end-from)/c.factor[i]
}

// cpuSpan is the process CPU clock (cpuSeconds) at an operation's start
// and end.
type cpuSpan struct{ start, end float64 }

func (s cpuSpan) seconds() float64 { return s.end - s.start }

// kernels holds the meter's kernels and their data; they allocate
// nothing and leave their results in sink.
type kernels struct {
	sortSrc, sortBuf []int32
	table            map[uint64]uint64
	sink             uint64
}

const lookupSize = 1 << 17

func newKernels() *kernels {
	k := &kernels{sortSrc: make([]int32, 1<<13), table: make(map[uint64]uint64, lookupSize)}
	r := uint64(88172645463325252)
	for i := range k.sortSrc {
		r = xorshift(r)
		k.sortSrc[i] = int32(r)
	}
	k.sortBuf = make([]int32, len(k.sortSrc))
	for i := uint64(0); i < lookupSize; i++ {
		k.table[i] = 3 * i
	}
	return k
}

func xorshift(r uint64) uint64 {
	r ^= r << 13
	r ^= r >> 7
	r ^= r << 17
	return r
}

// ilp is dependent integer arithmetic on eight registers.
func (k *kernels) ilp() {
	a, b, c, d, e, f, g, h := uint64(1), uint64(2), uint64(3), uint64(4), uint64(5), uint64(6), uint64(7), uint64(8)
	for i := 0; i < 100_000; i++ {
		a = a*6364136223846793005 + b
		b ^= c >> 3
		c += d << 1
		d = d*3 + e
		e ^= f + a
		f += g >> 5
		g = g*5 + h
		h ^= a
	}
	k.sink += a + b + c + d + e + f + g + h
}

// sort sorts 8192 pseudo-random integers.
func (k *kernels) sort() {
	copy(k.sortBuf, k.sortSrc)
	slices.Sort(k.sortBuf)
	k.sink += uint64(k.sortBuf[len(k.sortBuf)/2])
}

// lookup makes 10000 pseudo-random lookups in the table.
func (k *kernels) lookup() {
	r := k.sink | 1
	for i := 0; i < 10_000; i++ {
		r = xorshift(r)
		k.sink += k.table[r%lookupSize]
	}
}

// threadCPUNS reads the calling thread's CPU clock. A Linux guest with
// paravirtual steal accounting leaves out the time the host ran another
// guest on the vCPU, which the wall clock counts.
func threadCPUNS() int64 { return clockNS(3) } // CLOCK_THREAD_CPUTIME_ID

// cpuSeconds reads the process CPU clock, the time of all its threads,
// less what the speed meters used.
func cpuSeconds() float64 {
	return float64(clockNS(2)-meterCPU.Load()) / 1e9 // CLOCK_PROCESS_CPUTIME_ID
}

func clockNS(clock uintptr) int64 {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clock, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		return 0
	}
	return ts.Nano()
}

// pinProcess restricts every thread of the process to the lowest CPU it
// may run on, and returns that CPU. Threads started later inherit the
// mask. The meter then times the CPU the workload runs on: the host
// slows its vCPUs unevenly.
func pinProcess() (int, error) {
	var mask [16]uint64
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask))); e != 0 {
		return -1, e
	}
	word := slices.IndexFunc(mask[:], func(w uint64) bool { return w != 0 })
	if word < 0 {
		return -1, syscall.EINVAL
	}
	bit := 0
	for mask[word]>>bit&1 == 0 {
		bit++
	}
	var one [16]uint64
	one[word] = 1 << bit
	// A thread may start while the others are being pinned: repeat until
	// a pass over the process's threads finds none new.
	pinned := map[int]bool{}
	for fresh := true; fresh; {
		fresh = false
		ents, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return -1, err
		}
		for _, e := range ents {
			tid, err := strconv.Atoi(e.Name())
			if err != nil || pinned[tid] {
				continue
			}
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 {
				return -1, e
			}
			pinned[tid], fresh = true, true
		}
	}
	return 64*word + bit, nil
}
