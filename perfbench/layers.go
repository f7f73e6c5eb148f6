package main

import (
	"time"

	"github.com/ifot-middleware/ifot/internal/core"
	"github.com/ifot-middleware/ifot/internal/feature"
	"github.com/ifot-middleware/ifot/internal/ml"
	"github.com/ifot-middleware/ifot/internal/sensor"
)

// replayFlows caps how many of the workload's own inputs are replayed
// through the ML and codec functions to time them.
const replayFlows = 20000

// layers computes the traced pass's per-layer metrics. Layers a workload
// bypasses read 0.
func (p *pass) layers(res *passResult, m measured) map[string]float64 {
	flows := float64(res.completed)
	per := func(v float64) float64 { return ratio(v, flows) }
	socks := m.end.socks.sub(m.start.socks)
	dStats := func(f func(meter) int64) float64 { return float64(f(m.end) - f(m.start)) }
	dMod := func(name string) float64 { return m.end.modules[name] - m.start.modules[name] }
	hits := dStats(func(x meter) int64 { return x.cacheHits })
	misses := dStats(func(x meter) int64 { return x.cacheMisses })

	var transit, join []int64
	for i := 0; i < res.released; i++ {
		s := p.in.slot(i)
		if s.due < p.windowStart || s.due >= p.windowEnd {
			continue
		}
		if s.transit != 0 {
			transit = append(transit, s.transit-s.sent)
		}
		for _, at := range s.join {
			if at != 0 {
				join = append(join, at-s.sentLast)
			}
		}
	}
	rounds := dMod("ifot_mix_rounds_total")
	out := map[string]float64{
		"sensor.publish_us":  ratio(float64(p.pubNs), float64(p.pubCalls)) / 1e3,
		"sensor.late_p99_ms": res.lateP99Ms,
		"sensor.held_frac":   ratio(float64(res.held), float64(res.released)),
		"flow.loss_frac":     ratio(float64(res.lost), float64(res.attempted)),

		"wire.client_writes_per_flow":  per(float64(socks.clientWrites)),
		"wire.client_bytes_per_flow":   per(float64(socks.clientBytes)),
		"wire.broker_writes_per_flow":  per(float64(socks.brokerWrites)),
		"wire.broker_frames_per_write": ratio(float64(socks.brokerFrames), float64(socks.brokerWrites)),
		"wire.reads_per_flow":          per(float64(socks.clientReads + socks.brokerReads)),

		"broker.received_per_flow":     per(dStats(func(x meter) int64 { return x.brokerStats.MessagesReceived })),
		"broker.delivered_per_flow":    per(dStats(func(x meter) int64 { return x.brokerStats.MessagesDelivered })),
		"broker.dropped":               dStats(func(x meter) int64 { return x.brokerStats.MessagesDropped }),
		"broker.route_cache_hit_ratio": ratio(hits, hits+misses),
		"broker.transit_p50_ms":        summarize(transit).p50,

		"mqttclient.lane_depth_max": p.laneDepthMax,
		"mqttclient.lane_drops":     m.moduleEnd["ifot_client_lane_dropped_total"],

		"flow.join_p50_ms":    summarize(join).p50,
		"flow.joins_per_flow": ratio(float64(len(join)), float64(res.attempted)),

		"core.mix_rounds":            rounds,
		"core.mix_bytes_per_round":   ratio(dMod("ifot_mix_bytes_total"), rounds),
		"core.decisions_per_flow":    per(dMod("ifot_module_decisions_total")),
		"core.train_events_per_flow": per(dMod("ifot_module_train_events_total")),

		"telemetry.spans_dropped":  m.moduleEnd["ifot_module_trace_spans_dropped_total"],
		"telemetry.events_dropped": m.moduleEnd["ifot_events_dropped_total"],

		"runtime.alloc_bytes_per_flow": per(float64(m.end.totalAlloc - m.start.totalAlloc)),
		"runtime.gc_cycles_per_kflow":  per(float64(m.end.numGC-m.start.numGC)) * 1000,
		"runtime.gc_pause_p99_ms":      gcPauseP99(m.start, m.end),
	}
	for k, v := range p.replay(res) {
		out[k] = v
	}
	return out
}

// replay times the workload's own measured inputs through the public
// functions the tasks call, one layer at a time, and returns the mean
// self time per call in microseconds.
func (p *pass) replay(res *passResult) map[string]float64 {
	first := -1
	for i := 0; i < res.released; i++ {
		if p.in.slot(i).due >= p.windowStart {
			first = i
			break
		}
	}
	out := map[string]float64{"ml.train_us": 0, "ml.predict_us": 0, "ml.anomaly_us": 0}
	if first < 0 {
		return out
	}
	n := res.released - first
	if n > replayFlows {
		n = replayFlows
	}
	meanUs := func(f func(i int)) float64 {
		start := time.Now()
		for i := 0; i < n; i++ {
			f(i)
		}
		return float64(time.Since(start).Microseconds()) / float64(n)
	}
	decisions := make([]core.Decision, n)
	if p.in.perFlow == 1 {
		// Bare samples: the anomaly task decodes one sample and adds its
		// three channels to a z-score detector.
		det := ml.NewZScoreDetector()
		dv := feature.GetDense()
		defer feature.PutDense(dv)
		out["ml.anomaly_us"] = meanUs(func(i int) {
			v := p.in.sample(first+i, 0)
			dv.Reset()
			for c, x := range v.values {
				dv.Append(uint32(v.index)*3+uint32(c), float64(x))
			}
			det.AddDense(dv)
		})
		out["core.decode_us"] = meanUs(func(i int) {
			_, _ = sensor.DecodeSample(p.in.payload(first+i, 0))
		})
		for i := range decisions {
			s := p.in.slot(first + i)
			decisions[i] = core.Decision{Recipe: "fleet", TaskID: "anomZ0", Kind: "anomaly", Label: "normal", Score: s.score, Seq: uint32(first + i + 1)}
		}
	} else {
		batches := make([][]sensor.Sample, n)
		payloads := make([][]byte, n)
		for i := range batches {
			batches[i] = make([]sensor.Sample, p.in.perFlow)
			for k := range batches[i] {
				batches[i][k] = p.in.decoded(first+i, k)
			}
			var err error
			if payloads[i], err = core.EncodeBatch(batches[i]); err != nil {
				panic(err) // three samples always fit a batch
			}
		}
		clf := ml.NewPassiveAggressive(1)
		label := func(i int) string {
			if p.in.slot(first+i).truth == labelNeg {
				return "neg"
			}
			return "pos"
		}
		out["ml.train_us"] = meanUs(func(i int) {
			dv := core.BatchDense(batches[i])
			clf.TrainDense(dv, label(i))
			feature.PutDense(dv)
		})
		out["ml.predict_us"] = meanUs(func(i int) {
			dv := core.BatchDense(batches[i])
			best, _ := clf.BestDense(dv)
			decisions[i] = core.Decision{Recipe: "fig9", TaskID: "predict", Kind: "predict", Label: best.Label, Score: best.Score, Seq: uint32(first + i + 1)}
			feature.PutDense(dv)
		})
		out["core.decode_us"] = meanUs(func(i int) {
			_, _, _ = core.DecodeBatchTraced(payloads[i])
		})
	}
	now := time.Now()
	for i := range decisions {
		decisions[i].SensedAt, decisions[i].At = now, now
	}
	out["core.encode_decision_us"] = meanUs(func(i int) { _ = core.EncodeJSON(decisions[i]) })
	return out
}
