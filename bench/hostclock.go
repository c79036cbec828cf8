package main

import (
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The two vCPUs this harness runs on are a share of a busy host, and
// what a vCPU gets done in a CPU-second drifts by 20–40% over minutes:
// between run sets twenty minutes apart every CPU-bound number of every
// workload moved together (query_only 48–78 requests/s at a constant
// 26.5 CPU-seconds per window). hostClock measures that drift while the
// workload runs: every hostTick it times one fixed unit of bench-owned
// work in thread CPU time, so preemption does not count. The unit is
// half a walk over memory and half JSON decoding and gzip, because the
// drift is in the memory system — an ALU loop barely sees it — and the
// daemons do both. It costs under 2% of one core.
const (
	hostTick = 200 * time.Millisecond
	// nominalHostUnit is the unit's CPU time on the host the end-to-end
	// numbers are reported at: about this box's median. Only ratios
	// between runs matter, so the exact figure does not.
	nominalHostUnit = 3 * time.Millisecond
	hostWalks       = 4
)

type hostClock struct {
	mem []uint64
	doc []byte
	zw  *gzip.Writer

	mu      sync.Mutex
	samples []float64 // µs, one per tick since the last reset
	stop    chan struct{}
	done    chan struct{}
	sink    uint64
}

func startHostClock() *hostClock {
	h := &hostClock{
		mem:  make([]uint64, 1<<19), // 4 MiB, past the private caches
		stop: make(chan struct{}),
		done: make(chan struct{}),
	}
	for i := range h.mem {
		h.mem[i] = uint64(i)
	}
	// A document shaped like the daemons' answers: a few hundred rows of
	// numbers and short strings, ≈45 kB of JSON.
	type row struct {
		Hour  int     `json:"hour"`
		Flows float64 `json:"flows"`
		Bytes float64 `json:"bytes"`
		Name  string  `json:"name"`
	}
	rows := make([]row, 750)
	x := uint64(88172645463325252)
	for i := range rows {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		rows[i] = row{i, float64(x % 100000), float64(x % 9999999), fmt.Sprintf("district-%d", x%401)}
	}
	h.doc, _ = json.Marshal(map[string]any{"hours": rows})
	h.zw, _ = gzip.NewWriterLevel(io.Discard, gzip.BestSpeed)
	go h.run()
	return h
}

// unit is the fixed work: hostWalks passes over the array, one cache
// line at a time, then one decode and one compression of the document.
func (h *hostClock) unit() {
	var s uint64
	for p := 0; p < hostWalks; p++ {
		for i := 0; i < len(h.mem); i += 8 {
			s += h.mem[i]
		}
	}
	var m map[string]any
	json.Unmarshal(h.doc, &m)
	h.zw.Reset(io.Discard)
	h.zw.Write(h.doc)
	h.zw.Close()
	h.sink += s + uint64(len(m))
}

func threadCPU() time.Duration {
	const clockThreadCPUTime = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

func (h *hostClock) run() {
	defer close(h.done)
	runtime.LockOSThread() // thread CPU time is only this goroutine's while it owns the thread
	defer runtime.UnlockOSThread()
	tick := time.NewTicker(hostTick)
	defer tick.Stop()
	for {
		select {
		case <-h.stop:
			return
		case <-tick.C:
		}
		t0 := threadCPU()
		h.unit()
		d := threadCPU() - t0
		h.mu.Lock()
		h.samples = append(h.samples, us(d))
		h.mu.Unlock()
	}
}

// lap returns the median unit time since the previous lap, as a factor
// of the nominal host's (>1 on a slower host), and starts a new lap.
// Without a reading the factor is 0.
func (h *hostClock) lap() (factor, unitUS float64, n int) {
	h.mu.Lock()
	s := h.samples
	h.samples = nil
	h.mu.Unlock()
	if len(s) == 0 {
		return 0, 0, 0
	}
	unitUS = median(s)
	return unitUS / us(nominalHostUnit), unitUS, len(s)
}

func (h *hostClock) close() {
	close(h.stop)
	<-h.done
}
