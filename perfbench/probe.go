package main

import (
	"fmt"
	"math"
	"sync"

	"ips/internal/obs"
)

// probeRefMS, in ms, is a round figure just above the host probe's run
// medians (0.37–0.49 ms) on the machine the benchmark was defined on
// (2-vCPU KVM guest, Intel Xeon family 6 model 143).  A run's gated
// latency is its median scaled by probeRefMS over that run's own probe
// median: the latency the run would have shown on a host whose probe takes
// probeRefMS.
const probeRefMS = 0.5

// probeSize and probeQuery size the probe's arrays: an L2-resident series
// and an L1-resident query, as in the program's own kernels.
const (
	probeSize  = 16384
	probeQuery = 64
)

// hostProbe measures how fast the host is during a run.  The defining
// machine shares its cores with other guests, and its speed drifted by a
// third and more between runs minutes apart, moving every timing of a run
// together; a workload samples the probe at quiet moments spread over its
// measured time (between classify blocks, between stream appends, between
// fits), when no request or fit of its own is in flight, and scales its
// latency by it.  The probe is fixed work of the kinds the program's hot
// loops do — sliding dot products of a short query (the dist kernels) and
// recurrence passes over a long series (STOMPI) — written here, so no
// change to the program changes it.
//
// The probe runs its work on as many goroutines at once as the workload
// keeps busy: fit runs Workers = 2, while a classify or stream request is
// one goroutine's work at a time.  Two busy CPUs of the defining machine
// slowed together in ways one busy CPU did not show.
type hostProbe struct {
	lanes []*probeLane
	ms    samples
}

// probeLane is one goroutine's probe state.
type probeLane struct {
	series, dots, best []float64
	sink               float64
}

func newHostProbe(threads int) *hostProbe {
	p := &hostProbe{}
	for t := 0; t < threads; t++ {
		l := &probeLane{
			series: make([]float64, probeSize+probeQuery),
			dots:   make([]float64, probeSize),
			best:   make([]float64, probeSize),
		}
		x := 0.0
		for i := range l.series {
			x = 0.9*x + math.Sin(float64(i)*0.37)
			l.series[i] = x
		}
		for i := range l.best {
			l.best[i] = math.Inf(1)
		}
		p.lanes = append(p.lanes, l)
	}
	return p
}

// sample times the probe k times: each time, every lane does the work once
// on its own goroutine, and the time is until the last one finishes.  A nil
// probe does nothing, so the unscaled passes (warm-up, traced) pass nil.
func (p *hostProbe) sample(k int) {
	if p == nil {
		return
	}
	for i := 0; i < k; i++ {
		sw := obs.NewStopwatch()
		if len(p.lanes) == 1 {
			p.lanes[0].work()
		} else {
			var wg sync.WaitGroup
			for _, l := range p.lanes {
				wg.Add(1)
				go func(l *probeLane) {
					defer wg.Done()
					l.work()
				}(l)
			}
			wg.Wait()
		}
		p.ms.addDur(sw.Elapsed())
	}
}

// work is the probe's fixed work; its result feeds p.sink so it cannot be
// optimised away.
func (p *probeLane) work() {
	s := p.series
	q := s[:probeQuery]
	acc := 0.0
	for i := 0; i < 1024; i++ {
		w := s[i : i+probeQuery]
		var d0, d1, d2, d3 float64
		for j := 0; j < probeQuery; j += 4 {
			d0 += q[j] * w[j]
			d1 += q[j+1] * w[j+1]
			d2 += q[j+2] * w[j+2]
			d3 += q[j+3] * w[j+3]
		}
		acc += d0 + d1 + d2 + d3
	}
	for r := 0; r < 4; r++ {
		for i := probeSize - 1; i > 0; i-- {
			p.dots[i] = p.dots[i-1] - s[i-1]*s[r] + s[i+probeQuery-1]*s[r+probeQuery-1]
		}
		for i, d := range p.dots {
			p.best[i] = min(p.best[i], 2*(probeQuery-d*1e-3))
		}
		acc += p.best[r]
	}
	p.sink += acc
}

// scaled records latency_p50_norm_ms, the median of lat (ms) scaled to the
// reference host speed, and bench.probe_ms, the run's probe median.
func (r *report) scaled(lat samples, p *hostProbe) {
	raw, pm := lat.quantile(0.5), p.ms.quantile(0.5)
	r.set("latency_p50_norm_ms", raw*probeRefMS/pm, "ms",
		fmt.Sprintf("(median %.6g ms, n=%d, × probe reference %g ms / this run's probe median %.6g ms)",
			raw, len(lat), probeRefMS, pm))
	r.median("bench.probe_ms", p.ms, "ms")
}
