package main

import (
	"fmt"
	"sort"
	"time"

	"github.com/ifot-middleware/ifot/internal/feature"
	"github.com/ifot-middleware/ifot/internal/ml"
)

const (
	// lateGateMs is the validity gate on the open-loop schedule: a run
	// whose generator started its flows later than this at the 99th
	// percentile could not keep the schedule. GC stalls alone make it
	// late by a few milliseconds.
	lateGateMs = 50.0
	// accuracyFloor is the least share of measured fig9 decisions that
	// must match the trainer's own label. PA on these linearly separable
	// batches exceeds it once the first MIX round has landed.
	accuracyFloor = 0.9
)

// analyze turns the pass's slots and meter readings into its results and
// runs the output checks.
func (p *pass) analyze(res *passResult, m measured) {
	expect, _ := p.cfg.w.outputKinds()
	res.released = int(p.released.Load())
	secs := len(m.seconds) - 1
	flowLat := make([][]int64, secs)
	var kindLat [2][][]int64
	for k := range kindLat {
		kindLat[k] = make([][]int64, secs)
	}
	done := make([]int, secs)
	var late []int64
	for i := 0; i < res.released; i++ {
		s := p.in.slot(int(i))
		if s.done != 0 {
			for k := 0; k < secs; k++ {
				if s.done >= m.seconds[k].at && s.done < m.seconds[k+1].at {
					done[k]++
					res.completed++
					break
				}
			}
		}
		if s.due < p.windowStart || s.due >= p.windowEnd {
			continue
		}
		sec := int((s.due - p.windowStart) / int64(time.Second))
		if sec >= secs { // the last reading came a little early
			sec = secs - 1
		}
		res.attempted++
		late = append(late, s.late)
		// A missing output misses every latency limit: it counts as
		// arriving when the drain gave up.
		missing := m.drainEnd - s.due
		if s.arrived.Load() < p.nOut {
			res.lost++
			flowLat[sec] = append(flowLat[sec], missing)
		} else {
			flowLat[sec] = append(flowLat[sec], s.done-s.due)
		}
		for k, want := range expect {
			switch {
			case !want:
			case s.out[k] != 0:
				kindLat[k][sec] = append(kindLat[k][sec], s.out[k]-s.due)
			default:
				kindLat[k][sec] = append(kindLat[k][sec], missing)
				res.missing[k]++
			}
		}
	}
	res.flow = summarizeSeconds(flowLat)
	for k := range kindLat {
		res.byKind[k] = summarizeSeconds(kindLat[k])
	}
	if !p.cfg.w.closedLoop() {
		res.lateP99Ms = summarize(late).p99
		res.held = p.held
	}
	rates := make([]float64, secs)
	cpu := make([]float64, secs)
	for k := range rates {
		a, b := m.seconds[k], m.seconds[k+1]
		rates[k] = float64(done[k]) / time.Duration(b.at-a.at).Seconds()
		cpu[k] = ratio(float64((b.cpu - a.cpu).Microseconds()), float64(done[k]))
	}
	res.flowsPerS = median(rates)
	res.cpuUs = median(cpu)
	res.heapMB = float64(m.heapBytes) / 1e6
	res.dropped = m.dropped

	p.check(res, p.dups.Load() == 0, "outputs duplicated: %d", p.dups.Load())
	p.check(res, p.malformed.Load() == 0, "outputs unreadable or with an unknown seq: %d", p.malformed.Load())
	p.check(res, res.completed > 0, "flows completed in the window: %d", res.completed)
	if !p.cfg.w.closedLoop() {
		p.check(res, res.lateP99Ms <= lateGateMs, "generator lateness p99 %.3f ms (gate %.0f ms)", res.lateP99Ms, lateGateMs)
	}
	if expect[outTrain] {
		p.checkFig9(res)
	} else {
		p.checkFleet(res)
	}
}

func (p *pass) check(res *passResult, ok bool, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if ok {
		res.checks = append(res.checks, "ok   "+msg)
		return
	}
	res.checks = append(res.checks, "FAIL "+msg)
	res.failures = append(res.failures, msg)
}

// checkFig9: Examples rose with every TrainEvent, and the predictor agrees
// with the generator's sign-of-channel-0 label often enough.
func (p *pass) checkFig9(res *passResult) {
	p.check(res, p.notRising.Load() == 0, "TrainEvents whose Examples did not rise: %d", p.notRising.Load())
	var decided, right int
	for i := 0; i < res.released; i++ {
		s := p.in.slot(int(i))
		if s.due < p.windowStart || s.due >= p.windowEnd || s.out[outDecision] == 0 {
			continue
		}
		decided++
		if s.label == s.truth {
			right++
		}
	}
	acc := ratio(float64(right), float64(decided))
	p.check(res, acc >= accuracyFloor, "prediction accuracy %.4f over %d decisions (floor %.2f)", acc, decided, accuracyFloor)
}

// checkFleet replays every device's samples, in the order the generator
// sent them, through an offline z-score detector and requires each
// decision's score and label to equal the reference. A device with a lost
// sample is excluded (its detector state diverged) and counted.
func (p *pass) checkFleet(res *passResult) {
	byDevice := make([][]int32, fleetDevices)
	for i := 0; i < res.released; i++ {
		d := p.in.slot(i).device
		byDevice[d] = append(byDevice[d], int32(i))
	}
	var excluded, checked, mismatched, spikes, missed int
	dv := feature.GetDense()
	defer feature.PutDense(dv)
	for _, flows := range byDevice {
		if !p.allDecided(flows) {
			excluded++
			continue
		}
		// A fresh detector per device, its three channels on dimensions
		// 0-2: the task's detector keeps each device on dimensions of its
		// own, so only the device's own history enters its scores.
		det := ml.NewZScoreDetector()
		for _, i := range flows {
			s := p.in.slot(int(i))
			dv.Reset()
			for c, v := range p.in.decoded(int(i), 0).Values {
				dv.Append(uint32(c), float64(v))
			}
			score := det.AddDense(dv)
			want := labelNormal
			if score > anomalyThreshold {
				want = labelAnomaly
			}
			checked++
			if s.score != score || s.label != want {
				mismatched++
			}
			if s.truth == labelAnomaly {
				spikes++
				if s.label != labelAnomaly {
					missed++
				}
			}
		}
	}
	p.check(res, mismatched == 0, "decisions differing from the offline z-score reference: %d of %d (%d devices excluded for a lost sample)",
		mismatched, checked, excluded)
	p.check(res, missed == 0, "seeded spikes not flagged: %d of %d", missed, spikes)
}

func (p *pass) allDecided(flows []int32) bool {
	for _, i := range flows {
		if p.in.slot(int(i)).out[outDecision] == 0 {
			return false
		}
	}
	return true
}

// medianSetup is the median of each set-up phase over the pass's stacks.
func medianSetup(ts []setupTimes) (total, announce, deploy, wait float64) {
	pick := func(f func(setupTimes) time.Duration) float64 {
		vs := make([]float64, len(ts))
		for i, t := range ts {
			vs[i] = f(t).Seconds()
		}
		return median(vs)
	}
	return pick(setupTimes.total), pick(func(t setupTimes) time.Duration { return t.announce }),
		pick(func(t setupTimes) time.Duration { return t.deploy }),
		pick(func(t setupTimes) time.Duration { return t.waitRunning })
}

// gcPauseP99 is the 99th-percentile stop-the-world pause of the
// collections that ran between two readings (runtime.MemStats keeps the
// last 256).
func gcPauseP99(a, b meter) float64 {
	n := int(b.numGC - a.numGC)
	if n > len(b.pauseNs) {
		n = len(b.pauseNs)
	}
	pauses := make([]int64, 0, n)
	for c := b.numGC - uint32(n) + 1; n > 0 && c <= b.numGC; c++ {
		pauses = append(pauses, int64(b.pauseNs[(c+255)%256]))
	}
	sort.Slice(pauses, func(i, j int) bool { return pauses[i] < pauses[j] })
	return toMs(percentile(pauses, 99))
}
