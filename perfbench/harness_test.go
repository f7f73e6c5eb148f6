package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
	"time"

	"github.com/ifot-middleware/ifot/internal/core"
	"github.com/ifot-middleware/ifot/internal/feature"
	"github.com/ifot-middleware/ifot/internal/ml"
	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/sensor"
	"github.com/ifot-middleware/ifot/internal/telemetry"
	"github.com/ifot-middleware/ifot/internal/wire"
)

func TestSummarizeNearestRank(t *testing.T) {
	ns := make([]int64, 100)
	for i := range ns {
		ns[i] = int64(100-i) * int64(time.Millisecond) // unsorted on purpose
	}
	got := summarize(ns)
	if want := (summary{n: 100, p50: 50, p90: 90, p99: 99}); got != want {
		t.Fatalf("summarize(1..100 ms) = %+v, want %+v", got, want)
	}
	if got := summarize([]int64{int64(3 * time.Millisecond)}); got != (summary{n: 1, p50: 3, p90: 3, p99: 3}) {
		t.Fatalf("summarize(one sample) = %+v", got)
	}
	// Per-second buckets: the median of the seconds' percentiles, and
	// every sample counted. One disturbed second out of three moves
	// nothing.
	ms := func(vs ...int64) []int64 {
		for i := range vs {
			vs[i] *= int64(time.Millisecond)
		}
		return vs
	}
	secs := [][]int64{ms(1, 2, 3), ms(2, 3, 4), ms(50, 60, 70), nil}
	if got := summarizeSeconds(secs); got != (summary{n: 9, p50: 3, p90: 4, p99: 4}) {
		t.Fatalf("summarizeSeconds = %+v", got)
	}
	if got := summarize(nil); got != (summary{}) {
		t.Fatalf("summarize(nil) = %+v, want zeros", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Fatalf("median = %v, want 2.5", got)
	}
}

func TestSinkParsesEncodedOutputs(t *testing.T) {
	ev := core.EncodeJSON(core.TrainEvent{Recipe: "fig9", TaskID: "train", Seq: 42, Examples: 7,
		SensedAt: time.Now(), At: time.Now(),
		Trace: &core.TraceContext{Key: telemetry.TraceKey{Recipe: "fig9", TaskID: "train", Seq: 99}}})
	if seq, ok := jsonUint(ev, keySeq); !ok || seq != 42 {
		t.Fatalf("seq = %d, %v; want the top-level 42, not the trace key's", seq, ok)
	}
	if ex, ok := jsonUint(ev, keyExamples); !ok || ex != 7 {
		t.Fatalf("examples = %d, %v", ex, ok)
	}
	d := core.EncodeJSON(core.Decision{Recipe: "fleet", TaskID: "anomZ0", Kind: "anomaly", Label: "anomaly",
		Score: 3.0000000000000004, Seq: 5})
	if score, ok := jsonFloat(d, keyScore); !ok || score != 3.0000000000000004 {
		t.Fatalf("score = %v, %v", score, ok)
	}
	if got := jsonLabel(d); got != labelAnomaly {
		t.Fatalf("label = %d, want labelAnomaly", got)
	}
	if got := jsonLabel(core.EncodeJSON(core.Decision{Kind: "predict", Seq: 1})); got != labelNone {
		t.Fatalf("empty label = %d, want labelNone", got)
	}
	if _, ok := jsonUint([]byte(`{"seq":-1}`), keySeq); ok {
		t.Fatal("a negative seq parsed")
	}
}

// testPass builds a pass over n generated flows of w, without a stack.
func testPass(t *testing.T, w *workload, n int) *pass {
	t.Helper()
	in, err := newInputs(w, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(in.free)
	p := &pass{cfg: passConfig{w: w}, in: in, epoch: time.Now()}
	p.epochNs = p.epoch.UnixNano()
	_, p.nOut = w.outputKinds()
	return p
}

// oneSecond is a meter reading set for a window of one sub-window ending
// now.
func oneSecond(p *pass) measured {
	now := p.now()
	return measured{
		start: meter{at: 0}, end: meter{at: now},
		seconds:  []cpuReading{{at: 0}, {at: now + 1}},
		drainEnd: now,
	}
}

func mustWorkload(t *testing.T, name string) *workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestLossAndDuplicateAccounting(t *testing.T) {
	p := testPass(t, mustWorkload(t, "fig9-paced"), 10)
	p.windowStart, p.windowEnd = 0, int64(time.Second)
	p.released.Store(10)
	train, decide := p.onOutput(outTrain), p.onOutput(outDecision)
	for seq := 1; seq <= 10; seq++ {
		p.in.slot(seq - 1).due = 1
		examples := seq
		if seq == 8 {
			examples = 7 // Examples must rise strictly
		}
		train(mqttclient.Message{Payload: core.EncodeJSON(core.TrainEvent{Seq: uint32(seq), Examples: int64(examples)})})
		if seq != 5 { // flow 5's decision is lost
			decide(mqttclient.Message{Payload: core.EncodeJSON(core.Decision{Seq: uint32(seq), Label: "pos"})})
		}
	}
	decide(mqttclient.Message{Payload: core.EncodeJSON(core.Decision{Seq: 3, Label: "pos"})}) // duplicate
	decide(mqttclient.Message{Payload: core.EncodeJSON(core.Decision{Seq: 11, Label: "pos"})})

	res := &passResult{}
	p.analyze(res, oneSecond(p))
	if res.attempted != 10 || res.lost != 1 || res.completed != 9 {
		t.Fatalf("attempted %d lost %d completed %d, want 10 1 9", res.attempted, res.lost, res.completed)
	}
	for _, want := range []string{"outputs duplicated: 1", "unknown seq: 1", "did not rise: 1"} {
		if !strings.Contains(strings.Join(res.failures, "\n"), want) {
			t.Errorf("failures %q lack %q", res.failures, want)
		}
	}
	if res.byKind[outTrain].n != 10 || res.byKind[outDecision].n != 10 {
		t.Errorf("a lost output must still count as a latency sample: %+v", res.byKind)
	}
}

// stallingPublisher blocks its first Publish for stall, as a socket does
// when the consumer stopped reading, then hands every message straight to
// the sink handler.
type stallingPublisher struct {
	stall   time.Duration
	calls   int
	deliver func(seq uint32)
}

func (s *stallingPublisher) Publish(topic string, payload []byte, _ wire.QoS, _ bool) error {
	if s.calls == 0 {
		time.Sleep(s.stall)
	}
	s.calls++
	smp, err := sensor.DecodeSample(payload)
	if err != nil {
		return err
	}
	s.deliver(smp.Seq)
	return nil
}

func TestLatencyCountsFromDueTimeUnderStall(t *testing.T) {
	w := *mustWorkload(t, "fleet-anomaly")
	w.rate = 1000
	const flows, stall = 40, 25 * time.Millisecond
	p := testPass(t, &w, flows)
	decide := p.onOutput(outDecision)
	pub := &stallingPublisher{stall: stall, deliver: func(seq uint32) {
		decide(mqttclient.Message{Payload: core.EncodeJSON(core.Decision{Seq: seq, Label: "normal"})})
	}}
	p.epoch = time.Now()
	for i := 0; i < p.in.flows; i++ {
		p.in.slot(i).due = int64(i) * int64(time.Millisecond)
	}
	p.windowStart, p.windowEnd = 0, int64(flows)*int64(time.Millisecond)
	if err := p.openLoop(pub); err != nil {
		t.Fatal(err)
	}

	res := &passResult{}
	p.analyze(res, oneSecond(p))
	// Flow 5 was due 5 ms in, while the first Publish was stuck: it went
	// out about 20 ms late, and its latency must include that wait.
	s := p.in.slot(5)
	if lat := time.Duration(s.done - s.due); lat < stall-10*time.Millisecond {
		t.Errorf("flow 5 waited behind a %v stall but measured %v", stall, lat)
	}
	if late := time.Duration(s.late); late < stall-10*time.Millisecond {
		t.Errorf("flow 5 started %v late, want about %v", late, stall-5*time.Millisecond)
	}
	if res.flow.p99 < float64(stall/time.Millisecond)-1 || res.lateP99Ms < float64(stall/time.Millisecond)-1 {
		t.Errorf("p99 %.2f ms, lateness p99 %.2f ms: the stall is hidden", res.flow.p99, res.lateP99Ms)
	}
	if res.lost != 0 || res.attempted != flows {
		t.Errorf("attempted %d lost %d", res.attempted, res.lost)
	}
}

// slowPublisher completes every flow's outputs a fixed time after it is
// published, and records the most flows it ever saw in flight.
type slowPublisher struct {
	p           *pass
	delay       time.Duration
	maxInFlight int64
	done        func(seq uint32)
}

func (s *slowPublisher) Publish(topic string, payload []byte, _ wire.QoS, _ bool) error {
	smp, err := sensor.DecodeSample(payload)
	if err != nil {
		return err
	}
	// released counts this flow once Publish returns.
	if n := int64(smp.Seq) - s.p.completed.Load(); n > s.maxInFlight {
		s.maxInFlight = n
	}
	time.AfterFunc(s.delay, func() { s.done(smp.Seq) })
	return nil
}

func TestOpenLoopHoldsFlowsBeyondItsWindow(t *testing.T) {
	w := *mustWorkload(t, "fleet-anomaly")
	w.rate, w.window = 2000, 4
	const flows, delay = 60, 10 * time.Millisecond
	p := testPass(t, &w, flows)
	p.tokens = make(chan struct{}, w.window)
	for i := 0; i < w.window; i++ {
		p.tokens <- struct{}{}
	}
	decide := p.onOutput(outDecision)
	pub := &slowPublisher{p: p, delay: delay, done: func(seq uint32) {
		decide(mqttclient.Message{Payload: core.EncodeJSON(core.Decision{Seq: seq, Label: "normal"})})
	}}
	p.epoch = time.Now()
	p.epochNs = p.epoch.UnixNano()
	for i := 0; i < flows; i++ {
		p.in.slot(i).due = int64(i) * int64(time.Second) / 2000
	}
	if err := p.openLoop(pub); err != nil {
		t.Fatal(err)
	}
	p.drain()
	if pub.maxInFlight > int64(w.window) {
		t.Fatalf("%d flows in flight, window %d", pub.maxInFlight, w.window)
	}
	if got := p.completed.Load(); got != flows {
		t.Fatalf("completed %d of %d flows", got, flows)
	}
	if p.held == 0 {
		t.Fatal("no flow counted as held")
	}
	// Four flows per 10 ms go out while 2,000/s are due: the last flow
	// waited about 110 ms for the window. Its latency shows the wait; its
	// lateness, the generator's own, does not.
	last := p.in.slot(flows - 1)
	if lat := time.Duration(last.done - last.due); lat < 100*time.Millisecond+delay {
		t.Fatalf("the last flow's latency %v leaves out its wait for the window", lat)
	}
	if late := time.Duration(last.late); late > 50*time.Millisecond {
		t.Fatalf("the last flow counts %v of lateness; a hold is not the generator's lateness", late)
	}
}

// instantPublisher hands every flow's outputs straight to the sink
// handlers once its last sample is published.
type instantPublisher struct {
	perFlow, calls int
	onFlow         func(seq uint32)
}

func (s *instantPublisher) Publish(topic string, payload []byte, _ wire.QoS, _ bool) error {
	if s.calls++; s.calls%s.perFlow == 0 {
		smp, err := sensor.DecodeSample(payload)
		if err != nil {
			return err
		}
		s.onFlow(smp.Seq)
	}
	return nil
}

func TestClosedLoopGrowsItsInputs(t *testing.T) {
	w := mustWorkload(t, "fig9-saturate")
	p := testPass(t, w, 10)
	p.tokens = make(chan struct{}, w.window)
	for i := 0; i < w.window; i++ {
		p.tokens <- struct{}{}
	}
	p.windowEnd = int64(time.Hour)
	const flows = chunkFlows + 100
	train, decide := p.onOutput(outTrain), p.onOutput(outDecision)
	pub := &instantPublisher{perFlow: p.in.perFlow, onFlow: func(seq uint32) {
		train(mqttclient.Message{Payload: core.EncodeJSON(core.TrainEvent{Seq: seq, Examples: int64(seq)})})
		decide(mqttclient.Message{Payload: core.EncodeJSON(core.Decision{Seq: seq, Label: "pos"})})
		if seq == flows {
			p.windowEnd = 0 // the window ends before the next release
		}
	}}
	if err := p.closedLoop(pub); err != nil {
		t.Fatal(err)
	}
	if got := p.released.Load(); got != flows || p.completed.Load() != flows {
		t.Fatalf("released %d, completed %d; want %d each", got, p.completed.Load(), flows)
	}
	if p.dups.Load() != 0 || p.malformed.Load() != 0 || p.notRising.Load() != 0 {
		t.Fatalf("dups %d, malformed %d, not rising %d", p.dups.Load(), p.malformed.Load(), p.notRising.Load())
	}
	// Grown in pieces, the inputs are the ones the seed gives at once,
	// and each flow went out stamped with its release time.
	whole, err := newInputs(w, p.in.flows, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer whole.free()
	for _, i := range []int{0, 9, 10, chunkFlows - 1, chunkFlows, flows - 1} {
		for k := 0; k < p.in.perFlow; k++ {
			got, want := p.in.decoded(i, k), whole.decoded(i, k)
			if got.Seq != uint32(i+1) || got.Values != want.Values || p.in.slot(i).truth != whole.slot(i).truth {
				t.Fatalf("flow %d sample %d: %+v, want values %v", i, k, got, want.Values)
			}
			if at := got.Timestamp.Sub(p.epoch); at != time.Duration(p.in.slot(i).due) {
				t.Fatalf("flow %d stamped %v after the epoch, released %v", i, at, time.Duration(p.in.slot(i).due))
			}
		}
	}
	if p.slotFor(uint64(p.in.flows)+1) != nil {
		t.Fatal("a seq past the generated flows has a slot")
	}
}

// decideLikeModule scores every released fleet flow the way a zone's
// anomaly task does: one detector per task, each device's channels on
// their own dimensions.
func decideLikeModule(p *pass) {
	zones := [2]*ml.ZScoreDetector{ml.NewZScoreDetector(), ml.NewZScoreDetector()}
	dv := feature.GetDense()
	defer feature.PutDense(dv)
	for i := 0; i < p.in.flows; i++ {
		s := p.in.slot(i)
		smp := p.in.decoded(i, 0)
		dv.Reset()
		for c, v := range smp.Values {
			dv.Append(uint32(smp.SensorIndex)*3+uint32(c), float64(v))
		}
		s.score = zones[smp.SensorIndex%2].AddDense(dv)
		s.label = labelNormal
		if s.score > anomalyThreshold {
			s.label = labelAnomaly
		}
		s.out[outDecision] = 1
	}
}

func TestZScoreOracle(t *testing.T) {
	const flows = 6 * fleetDevices // six samples a device, so spikes are seeded
	p := testPass(t, mustWorkload(t, "fleet-anomaly"), flows)
	p.released.Store(flows)
	decideLikeModule(p)
	res := &passResult{released: flows}
	p.checkFleet(res)
	if len(res.failures) != 0 {
		t.Fatalf("faithful decisions failed the oracle: %v", res.failures)
	}
	text := strings.Join(res.checks, "\n")
	if !strings.Contains(text, "0 devices excluded") || strings.Contains(text, "of 0\n") {
		t.Fatalf("checks: %s", text)
	}
	var spikes int
	for i := 0; i < p.in.flows; i++ {
		if p.in.slot(i).truth == labelAnomaly {
			spikes++
		}
	}
	if spikes == 0 {
		t.Fatal("no spikes seeded")
	}

	p.in.slot(fleetDevices + 7).score += 1e-9 // one wrong score
	p.in.slot(2*fleetDevices + 9).out[outDecision] = 0
	res = &passResult{released: flows}
	p.checkFleet(res)
	got := strings.Join(res.failures, "\n")
	if !strings.Contains(got, "reference: 1 of") || !strings.Contains(got, "(1 devices excluded") {
		t.Fatalf("want one mismatch and one excluded device, got %q", got)
	}
}

func TestFrameScannerAcrossWrites(t *testing.T) {
	var stream bytes.Buffer
	sizes := []int{0, 5, 126, 127, 300, 20000}
	for _, n := range sizes {
		if err := wire.WritePacket(&stream, &wire.PublishPacket{Topic: "a/b", Payload: make([]byte, n)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := wire.WritePacket(&stream, &wire.PingrespPacket{}); err != nil {
		t.Fatal(err)
	}
	data := stream.Bytes()
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		var f frameScanner
		frames := 0
		for rest := data; len(rest) > 0; {
			n := 1 + rng.Intn(64)
			if n > len(rest) {
				n = len(rest)
			}
			frames += f.scan(rest[:n])
			rest = rest[n:]
		}
		if frames != len(sizes)+1 {
			t.Fatalf("trial %d: %d frames, want %d", trial, frames, len(sizes)+1)
		}
	}
}

// TestBenchmarkSpec keeps BENCHMARK.json, the benchmark's machine-readable
// description, in step with the metrics and workloads this program reports.
func TestBenchmarkSpec(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range spec.Workloads {
		got = append(got, w.Name+": "+w.Why)
	}
	for _, w := range workloads {
		want = append(want, w.name+": "+w.why)
	}
	for _, m := range spec.EndToEnd {
		got = append(got, fmt.Sprintf("e2e %s %s %s %g", m.Name, m.Unit, m.Better, m.Bound))
	}
	for _, m := range endToEnd {
		want = append(want, fmt.Sprintf("e2e %s %s %s %g", m.name, m.unit, m.better, m.bound))
	}
	for _, m := range spec.PerLayer {
		got = append(got, fmt.Sprintf("layer %s %s %s", m.Name, m.Unit, m.Better))
	}
	for _, m := range perLayer {
		want = append(want, fmt.Sprintf("layer %s %s %s", m.name, m.unit, m.better))
	}
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Fatalf("BENCHMARK.json is out of date:\n got:\n%s\nwant:\n%s", g, w)
	}
}
