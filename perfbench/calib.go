package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The gated times are CPU times expressed at a reference speed. The
// shared host this benchmark runs on changes speed by tens of percent
// within seconds (clock frequency, and neighbours on the same cores and
// caches), and the CPU time of identical work follows it. So while a
// run measures, a calibrator thread times a fixed block of work every
// calPeriod, and the run divides its CPU times by the median block
// time: one reference millisecond is the CPU time of one block while
// the work ran. A block takes 1 to 1.3 ms of CPU on a 2.0 GHz Xeon
// (Sapphire Rapids) vCPU. The blocks run beside the measured work, not
// between operations, because the speed a block sees just before a
// long operation says little about the speed during it. Each operation
// (and set-up as a whole) is scaled by the median of the blocks timed
// while it ran, and at least of the calWindow most recent ones.
// The calibrator's own CPU time is left out of every CPU time the run
// measures (cpuTime).
//
// The kernel is the benchmark's own code, so no change to the program
// moves it. It does the kinds of work the allocator does (table
// lookups, hashing, sorting) over a working set that stays in the
// per-core caches, and allocates nothing, so it neither triggers nor
// waits for the collector.
const (
	calUnits  = 13 // kernel units per block
	calPeriod = 20 * time.Millisecond
	calWindow = 16
)

type calibrator struct {
	next  []uint32 // a random cyclic walk over 128 KiB
	table []uint64 // open-addressing hash table
	keys  []int
	work  []int
	sink  uint64

	clock atomic.Uintptr // CPU-time clock of the calibrator thread while it runs
	final atomic.Int64   // its CPU time when it stopped, in ns
	stop  chan struct{}
	done  chan struct{}
	// busy is held while a block runs; cpuTime holds it to read the
	// clocks. The process clock adds a thread's running time only when
	// the kernel next accounts it (up to a scheduler tick late) while
	// the thread's own clock is exact, so the two agree only while the
	// calibrator is parked.
	busy sync.Mutex
	mu   sync.Mutex
	// blocks are the CPU times of the blocks timed so far, in ms.
	blocks []float64
}

func newCalibrator() *calibrator {
	const n = 1 << 15
	c := &calibrator{next: make([]uint32, n), table: make([]uint64, 1<<12), keys: make([]int, 1024), work: make([]int, 1024)}
	x := uint32(2463534242)
	rnd := func() uint32 { x ^= x << 13; x ^= x >> 17; x ^= x << 5; return x }
	for i := range c.next {
		c.next[i] = uint32(i)
	}
	for i := n - 1; i > 0; i-- {
		j := int(rnd() % uint32(i+1))
		c.next[i], c.next[j] = c.next[j], c.next[i]
	}
	for i := range c.keys {
		c.keys[i] = int(rnd())
	}
	return c
}

// unit does a fixed amount of work.
func (c *calibrator) unit() {
	var acc uint64
	p := uint32(c.sink) & uint32(len(c.next)-1)
	for i := 0; i < 8192; i++ {
		p = c.next[p]
		acc += uint64(p)
	}
	clear(c.table)
	mask := uint64(len(c.table) - 1)
	for _, key := range c.keys {
		h := uint64(key) * 0x9E3779B97F4A7C15
		for s := h >> 40 & mask; ; s = (s + 1) & mask {
			if c.table[s] == 0 || c.table[s] == h {
				c.table[s] = h
				break
			}
		}
	}
	copy(c.work, c.keys)
	sort.Ints(c.work)
	c.sink += acc + uint64(c.work[len(c.work)/2])
}

// start runs the calibrator on its own OS thread until stop.
func (c *calibrator) start() {
	c.stop, c.done = make(chan struct{}), make(chan struct{})
	ready := make(chan struct{})
	go func() {
		defer close(c.done)
		// The goroutine ends locked, so its thread exits with it and
		// no other goroutine ever runs on the thread whose clock
		// cpuTime subtracts.
		runtime.LockOSThread()
		c.clock.Store(threadClock(syscall.Gettid()))
		close(ready)
		t := time.NewTicker(calPeriod)
		defer t.Stop()
		for {
			c.busy.Lock()
			c.unit() // bring the working set back into the caches
			c0 := cpuClock(clockThreadCPU)
			for i := 0; i < calUnits; i++ {
				c.unit()
			}
			ms := float64(cpuClock(clockThreadCPU)-c0) / 1e6
			c.busy.Unlock()
			c.mu.Lock()
			c.blocks = append(c.blocks, ms)
			c.mu.Unlock()
			select {
			case <-t.C:
			case <-c.stop:
				c.busy.Lock()
				c.final.Store(int64(cpuClock(clockThreadCPU)))
				c.clock.Store(0)
				c.busy.Unlock()
				return
			}
		}
	}()
	<-ready
}

// halt stops the calibrator and waits for its thread to end. Its CPU
// time stays known: cpuTime goes on subtracting it.
func (c *calibrator) halt() {
	close(c.stop)
	<-c.done
}

// ownCPU is the CPU time the calibrator thread has used.
func (c *calibrator) ownCPU() time.Duration {
	if clk := c.clock.Load(); clk != 0 {
		return cpuClock(clk)
	}
	return time.Duration(c.final.Load())
}

// mark returns how many blocks have been timed so far.
func (c *calibrator) mark() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.blocks)
}

// refMsSince is the CPU time of one reference millisecond for work
// that started when the calibrator had mark blocks: the median of the
// blocks timed since, and at least of the calWindow most recent.
func (c *calibrator) refMsSince(mark int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return median(c.blocks[max(0, min(mark, len(c.blocks)-calWindow)):])
}

// refMs converts a CPU time to reference milliseconds.
func refMs(d time.Duration, ref float64) float64 { return float64(d) / 1e6 / ref }

func (c *calibrator) print() {
	c.mu.Lock()
	defer c.mu.Unlock()
	fmt.Printf("calibration block cpu p25 %.4f p50 %.4f p75 %.4f ms  n=%d  calibrator cpu %.3f s\n",
		quantile(c.blocks, 0.25), median(c.blocks), quantile(c.blocks, 0.75), len(c.blocks), c.ownCPU().Seconds())
}

// threadClock is the CPU-time clock of thread tid of this process
// (the kernel's MAKE_THREAD_CPUCLOCK(tid, CPUCLOCK_SCHED)).
func threadClock(tid int) uintptr { return uintptr(int64(int32(^tid)<<3 | 6)) }
