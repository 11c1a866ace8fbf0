package main

import (
	"math"
	"slices"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// On a shared virtual machine the simulator's speed drifts with the
// load its neighbours put on the physical cores, by a fifth or more
// between runs a few minutes apart (README.md, "Host noise"). While the
// cells run, a sampler on the second CPU times two fixed kernels that
// share no code with the simulator, every samplePeriod: a branchy,
// cache-resident one (sorting and hash-map updates) and a memory-bound
// one (a dependent walk through a table far larger than the per-core
// caches). The run's host times are scaled by the geometric mean of
// each kernel's nominal time over its median time in the run.
const (
	samplePeriod = 20 * time.Millisecond
	// cpuNominal and memNominal are the kernels' typical times on the
	// host the bounds were measured on (noise.json).
	cpuNominal = 1500 * time.Microsecond
	memNominal = 2200 * time.Microsecond
	// memTableWords sizes the memory kernel's table (64 MB), and
	// memSteps is how many loads one timing makes.
	memTableWords = 16 << 20
	memSteps      = 12_000
	// maxSamples bounds what a sampler records without growing its
	// slices: allocation would show in the cells' alloc_mb.
	maxSamples = 1 << 14
)

// speedKernels holds the kernels' buffers, made once and reused, so a
// timing allocates nothing.
type speedKernels struct {
	xs []int
	m  map[int]int
	// table holds pseudo-random words. It lives outside the Go heap:
	// 64 MB of heap would change when the collector runs and add to
	// live_heap_mb.
	table []uint32
	// sink keeps the walk from being optimised away.
	sink uint32
}

var kernels = sync.OnceValues(func() (*speedKernels, error) {
	mem, err := syscall.Mmap(-1, 0, memTableWords*4, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, err
	}
	k := &speedKernels{
		xs:    make([]int, 8192),
		m:     make(map[int]int, 4096),
		table: unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), memTableWords),
	}
	x := uint64(7)
	for i := range k.table {
		x = x*6364136223846793005 + 1442695040888963407
		k.table[i] = uint32(x >> 32)
	}
	return k, nil
})

// cpu times the cache-resident kernel.
func (k *speedKernels) cpu() time.Duration {
	t := time.Now()
	x := uint64(1)
	for i := range k.xs {
		x = x*6364136223846793005 + 1442695040888963407
		k.xs[i] = int(x >> 20)
	}
	slices.Sort(k.xs)
	clear(k.m)
	for i := 0; i < 48_000; i++ {
		k.m[(i*7919)&4095] += i
	}
	return time.Since(t)
}

// mem times the memory-bound kernel: each load's address depends on
// the word the previous load read, and on the step, so the walk never
// settles into a short cycle that the caches would hold.
func (k *speedKernels) mem() time.Duration {
	t := time.Now()
	i := uint32(0)
	for n := uint32(0); n < memSteps; n++ {
		i = (k.table[i] + n*2654435769) & (memTableWords - 1)
	}
	k.sink += i
	return time.Since(t)
}

// sampler times the kernels every samplePeriod on its own goroutine
// until stopped. It records at least one sample of each.
type sampler struct {
	stop     chan struct{}
	done     chan struct{}
	cpu, mem []time.Duration
}

func startSampler() (*sampler, error) {
	k, err := kernels()
	if err != nil {
		return nil, err
	}
	s := &sampler{
		stop: make(chan struct{}), done: make(chan struct{}),
		cpu: make([]time.Duration, 0, maxSamples), mem: make([]time.Duration, 0, maxSamples),
	}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(samplePeriod)
		defer tick.Stop()
		for {
			if len(s.cpu) < maxSamples {
				s.cpu = append(s.cpu, k.cpu())
				s.mem = append(s.mem, k.mem())
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s, nil
}

// finish stops the sampler and waits for its goroutine to end; only
// then may cpu and mem be read.
func (s *sampler) finish() {
	close(s.stop)
	<-s.done
}

// scale is the factor that turns the run's raw host times into
// reference seconds.
func (s *sampler) scale() float64 {
	return math.Sqrt(ratio(cpuNominal.Seconds(), medianSecs(s.cpu)) * ratio(memNominal.Seconds(), medianSecs(s.mem)))
}
