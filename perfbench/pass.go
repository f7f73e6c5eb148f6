package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"github.com/ifot-middleware/ifot/internal/broker"
	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/sensor"
	"github.com/ifot-middleware/ifot/internal/telemetry"
	"github.com/ifot-middleware/ifot/internal/wire"
)

const (
	// drainTimeout bounds the wait for in-flight outputs after the last
	// flow is published; a flow still incomplete then is lost.
	drainTimeout = 2 * time.Second
	// stallTimeout aborts a loop that holds a full window of flows in
	// flight of which none completes.
	stallTimeout = 5 * time.Second
	// tick spaces the open loop's releases: every tick, the flows due in
	// it are published back to back, like sensors that hand over a FIFO of
	// readings each millisecond. The schedule then keeps to the runtime
	// timer's resolution, and lateness is measured against the tick.
	tick = time.Millisecond
)

// passConfig selects one measured pass over a fresh stack.
type passConfig struct {
	w       *workload
	seed    int64
	seconds time.Duration
	// setups is how many times the stack is brought up; all but the
	// first are torn down at once and only time set-up.
	setups int
	// traced counts sockets, subscribes the probes, times every Publish
	// and samples lane depth, for the per-layer numbers.
	traced bool
}

// passResult is everything one pass measured.
type passResult struct {
	setups    []setupTimes
	released  int    // flows the generator published
	held      int64  // flows held back until one in flight completed
	attempted int    // flows due in the measured window
	lost      int    // attempted flows missing an output after the drain
	missing   [2]int // attempted flows missing each output kind
	dropped   int64  // messages the broker dropped from the window's start to the drain's end
	flow      summary
	byKind    [2]summary // per output kind
	lateP99Ms float64
	completed int // flows completed inside the metered window
	flowsPerS float64
	cpuUs     float64 // process CPU per completed flow
	heapMB    float64
	failures  []string // output checks that failed
	checks    []string // output checks, as printed
	layers    map[string]float64
}

// pass is the state of one pass while it runs.
type pass struct {
	cfg     passConfig
	in      *inputs
	st      *stack
	epoch   time.Time
	epochNs int64 // the epoch in Unix nanoseconds
	nOut    int32 // outputs each flow must produce

	// Window bounds in ns after the epoch.
	windowStart, windowEnd int64

	released  atomic.Int64
	completed atomic.Int64
	dups      atomic.Int64
	malformed atomic.Int64
	notRising atomic.Int64  // TrainEvent.Examples that failed to rise
	tokens    chan struct{} // one per flow that may still go in flight; nil: unbounded

	// Generator-owned (read after it returns).
	pubNs, pubCalls, pubErrs int64
	// Generator-owned stall watch: completions at the last check, and
	// for how long none came while the generator waited.
	lastCompleted int64
	idle          time.Duration
	// held counts the flows that waited for a flow in flight to complete.
	held int64

	laneDepthMax float64
}

func (p *pass) now() int64 { return int64(time.Since(p.epoch)) }

// runPass brings the stack up and drives it, then brings it up
// cfg.setups-1 more times only to time set-up. Those set-ups come after
// the measured window: in a process's first ten seconds or so, the
// median of 101 set-ups read up to about 50 % above its later value, by
// an amount that differed from run to run.
func runPass(cfg passConfig) (*passResult, error) {
	w := cfg.w
	flows := chunkFlows // a closed loop grows its inputs as it goes
	if !w.closedLoop() {
		flows = int(math.Ceil(w.rate * (warmup + cfg.seconds).Seconds()))
	}
	in, err := newInputs(w, flows, cfg.seed)
	if err != nil {
		return nil, err
	}
	defer in.free()

	res := &passResult{}
	var socks *sockCounts
	if cfg.traced {
		socks = &sockCounts{}
	}
	st, err := startStack(w.recipe(), socks)
	if err != nil {
		return nil, err
	}
	res.setups = append(res.setups, st.setup)

	p := &pass{cfg: cfg, in: in, st: st}
	_, p.nOut = w.outputKinds()
	p.tokens = make(chan struct{}, w.window) // one per flow in flight
	for i := 0; i < w.window; i++ {
		p.tokens <- struct{}{}
	}
	m, err := p.drive()
	st.close()
	if err != nil {
		return nil, err
	}
	for i := 1; i < cfg.setups; i++ {
		st, err := startStack(w.recipe(), nil)
		if err != nil {
			return nil, err
		}
		res.setups = append(res.setups, st.setup)
		st.close()
	}
	p.analyze(res, m)
	if cfg.traced {
		res.layers = p.layers(res, m)
	}
	return res, nil
}

// meter is the process-wide state read at the window's edges.
type meter struct {
	at          int64 // ns after the epoch
	cpu         time.Duration
	totalAlloc  uint64
	numGC       uint32
	pauseNs     [256]uint64
	brokerStats broker.Stats
	cacheHits   int64
	cacheMisses int64
	socks       sockSnapshot
	modules     map[string]float64 // module counter sums (traced)
}

// measured holds the pass's meter readings and its end-of-run figures.
type measured struct {
	start, end meter
	// seconds are the process CPU readings at every whole second of the
	// window, start and end included.
	seconds   []cpuReading
	heapBytes uint64
	drainEnd  int64
	dropped   int64 // broker drops from the window's start to the drain's end
	moduleEnd map[string]float64
}

// cpuReading is a CPU reading at one edge of a one-second sub-window.
type cpuReading struct {
	at  int64
	cpu time.Duration
}

// moduleCounters are the module registry series the traced pass reads.
var moduleCounters = []string{
	"ifot_module_decisions_total",
	"ifot_module_train_events_total",
	"ifot_mix_rounds_total",
	"ifot_mix_bytes_total",
	"ifot_module_trace_spans_dropped_total",
	"ifot_events_dropped_total",
	"ifot_client_lane_dropped_total",
}

func (p *pass) read() meter {
	m := meter{at: p.now(), cpu: processCPU()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.totalAlloc, m.numGC, m.pauseNs = ms.TotalAlloc, ms.NumGC, ms.PauseNs
	m.brokerStats = p.st.br.Stats()
	m.cacheHits, m.cacheMisses = p.st.br.RouteCacheStats()
	if p.cfg.traced {
		m.socks = p.st.socks.snapshot()
		m.modules = sumSeries(p.st.modRegs, moduleCounters...)
	}
	return m
}

// processCPU is the user+system CPU this process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sumSeries sums each named series over every registry.
func sumSeries(regs []*telemetry.Registry, names ...string) map[string]float64 {
	out := make(map[string]float64, len(names))
	for _, reg := range regs {
		for _, s := range reg.Samples() {
			for _, n := range names {
				if s.Name == n {
					out[n] += s.Value
				}
			}
		}
	}
	return out
}

var errStalled = errors.New("stalled: no flow in flight completed for " + stallTimeout.String())

// drive connects the sink and generator, runs warm-up and the measured
// window, drains, and returns the meter readings. The stack stays up; the
// caller closes it.
func (p *pass) drive() (measured, error) {
	var m measured
	w := p.cfg.w
	sink, err := p.st.client("perfbench-sink")
	if err != nil {
		return m, err
	}
	defer sink.Close()
	for _, o := range w.outputs {
		if _, err := sink.Subscribe(o.topic, wire.QoS0, p.onOutput(o.kind)); err != nil {
			return m, fmt.Errorf("sink subscribe %s: %w", o.topic, err)
		}
	}
	if p.cfg.traced {
		for _, t := range w.transitProbes {
			if _, err := sink.Subscribe(t, wire.QoS0, p.onTransit); err != nil {
				return m, fmt.Errorf("probe subscribe %s: %w", t, err)
			}
		}
		for j, t := range w.joinProbes {
			if _, err := sink.Subscribe(t, wire.QoS0, p.onJoin(j)); err != nil {
				return m, fmt.Errorf("probe subscribe %s: %w", t, err)
			}
		}
	}
	gen, err := p.st.client("perfbench-gen")
	if err != nil {
		return m, err
	}
	defer gen.Close()

	// Start the schedule a little later.
	p.epoch = time.Now().Add(200 * time.Millisecond)
	p.epochNs = p.epoch.UnixNano()
	p.windowStart = int64(warmup)
	p.windowEnd = int64(warmup + p.cfg.seconds)
	if !w.closedLoop() {
		perTick := int(math.Round(w.rate * tick.Seconds()))
		for i := 0; i < p.in.flows; i++ {
			p.in.slot(i).due = int64(time.Duration(i/perTick) * tick)
		}
	}
	runtime.GC() // start from a collected heap: set-up garbage is not the window's
	time.Sleep(time.Until(p.epoch))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	// The meter reads CPU at every whole second of the window and
	// everything else at its two edges.
	edges := int(p.cfg.seconds / time.Second)
	ticks := make(chan cpuReading, edges+1) // one per edge
	meters := make(chan meter, 2)           // the window's two edges
	wg.Add(1)
	go func() {
		defer wg.Done()
		for k := 0; k <= edges; k++ {
			edge := p.windowStart + int64(k)*int64(time.Second)
			select {
			case <-time.After(time.Duration(edge - p.now())):
			case <-stop:
				return
			}
			ticks <- cpuReading{at: p.now(), cpu: processCPU()}
			if k == 0 || k == edges {
				meters <- p.read()
			}
		}
	}()
	if p.cfg.traced {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.sampleLanes(stop)
		}()
	}

	if w.closedLoop() {
		err = p.closedLoop(gen)
	} else {
		err = p.openLoop(gen)
	}
	if err == nil {
		p.drain()
	}
	m.drainEnd = p.now()
	if err == nil {
		m.start, m.end = <-meters, <-meters
		for k := 0; k <= edges; k++ {
			m.seconds = append(m.seconds, <-ticks)
		}
	}
	close(stop)
	wg.Wait()
	if err != nil {
		return m, err
	}
	if p.pubErrs > 0 {
		return m, fmt.Errorf("%d generator publishes failed", p.pubErrs)
	}
	m.dropped = p.st.br.Stats().MessagesDropped - m.start.brokerStats.MessagesDropped
	if p.cfg.traced {
		m.moduleEnd = sumSeries(p.st.modRegs, moduleCounters...)
	}
	// Two collections: the first only moves sync.Pool contents to the
	// victim cache, the second frees them, leaving the live heap.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.heapBytes = ms.HeapAlloc
	return m, nil
}

// publisher is the generator's connection; tests substitute a fake.
type publisher interface {
	Publish(topic string, payload []byte, qos wire.QoS, retain bool) error
}

// openLoop publishes every flow at its due time, whatever the stack does,
// except that it holds a flow back while a full window is in flight. A
// flow's lateness is the generator's own: it counts from the later of its
// due time and the end of the last hold, so the time a hold costs shows
// in the flows' latency (from their due time), not in the lateness gate.
func (p *pass) openLoop(gen publisher) error {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	var heldUntil int64
	for i := 0; i < p.in.flows; i++ {
		s := p.in.slot(i)
		if wait := s.due - p.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		held, err := p.acquire(tick.C)
		if err != nil {
			return err
		}
		now := p.now()
		if held {
			heldUntil = now
		}
		s.late = now - max(s.due, heldUntil)
		p.publishFlow(gen, i)
	}
	return nil
}

// closedLoop keeps window flows in flight until the window ends,
// generating more inputs whenever it has released all there are.
func (p *pass) closedLoop(gen publisher) error {
	tick := time.NewTicker(time.Second)
	defer tick.Stop()
	for i := 0; ; i++ {
		if _, err := p.acquire(tick.C); err != nil {
			return err
		}
		if i == p.in.flows {
			if err := p.in.grow(chunkFlows); err != nil {
				return err
			}
		}
		now := p.now()
		if now >= p.windowEnd {
			return nil
		}
		p.in.slot(i).due = now
		p.publishFlow(gen, i)
	}
}

// acquire takes a token for one more flow in flight, waiting for a flow
// to complete if none is left, and reports whether it waited. tick fires
// every second; acquire fails once no flow has completed for stallTimeout
// while it waited.
func (p *pass) acquire(tick <-chan time.Time) (held bool, err error) {
	if p.tokens == nil {
		return false, nil
	}
	select {
	case <-p.tokens:
		return false, nil
	default:
		p.held++
	}
	for {
		select {
		case <-p.tokens:
			return true, nil
		case <-tick:
			if c := p.completed.Load(); c != p.lastCompleted {
				p.lastCompleted, p.idle = c, 0
			} else if p.idle += time.Second; p.idle >= stallTimeout {
				return true, errStalled
			}
		}
	}
}

// publishFlow stamps flow i's samples with its due time and publishes
// them.
func (p *pass) publishFlow(gen publisher, i int) {
	s := p.in.slot(i)
	p.in.stamp(i, p.epochNs+s.due)
	for k := 0; k < p.in.perFlow; k++ {
		var t0 int64
		if p.cfg.traced {
			t0 = p.now()
			if k == 0 {
				s.sent = t0
			}
		}
		if err := gen.Publish(p.in.topicNames[p.in.sample(i, k).topic], p.in.payload(i, k), wire.QoS0, false); err != nil {
			p.pubErrs++
		}
		if p.cfg.traced {
			t1 := p.now()
			p.pubNs += t1 - t0
			p.pubCalls++
			s.sentLast = t1
		}
	}
	p.released.Store(int64(i + 1))
}

// drain waits until every released flow completed or drainTimeout passed.
func (p *pass) drain() {
	deadline := time.Now().Add(drainTimeout)
	for p.completed.Load() < p.released.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
}

// slotFor maps a sequence number to its flow's slot.
func (p *pass) slotFor(seq uint64) *slot {
	if seq == 0 || seq > uint64(p.in.ready.Load()) {
		return nil
	}
	return p.in.slot(int(seq - 1))
}

// onOutput records one TrainEvent or Decision. Each output topic has its
// own dispatch lane, so a handler is never run concurrently with itself.
func (p *pass) onOutput(kind int) mqttclient.Handler {
	var lastExamples uint64
	return func(msg mqttclient.Message) {
		at := p.now()
		seq, _ := jsonUint(msg.Payload, keySeq)
		s := p.slotFor(seq)
		if s == nil {
			p.malformed.Add(1)
			return
		}
		if s.out[kind] != 0 {
			p.dups.Add(1)
			return
		}
		switch kind {
		case outTrain:
			ex, ok := jsonUint(msg.Payload, keyExamples)
			if !ok {
				p.malformed.Add(1)
				return
			}
			if ex <= lastExamples {
				p.notRising.Add(1)
			}
			lastExamples = ex
		case outDecision:
			score, ok := jsonFloat(msg.Payload, keyScore)
			if !ok {
				p.malformed.Add(1)
				return
			}
			s.score = score
			s.label = jsonLabel(msg.Payload)
		}
		s.out[kind] = at
		if s.arrived.Add(1) == p.nOut {
			s.done = at
			p.completed.Add(1)
			if p.tokens != nil {
				p.tokens <- struct{}{} // never blocks: a token was taken for this flow
			}
		}
	}
}

// onTransit stamps the first sensor sample a transit probe sees per flow.
func (p *pass) onTransit(msg mqttclient.Message) {
	at := p.now()
	smp, err := sensor.DecodeSample(msg.Payload)
	if err != nil {
		p.malformed.Add(1)
		return
	}
	if s := p.slotFor(uint64(smp.Seq)); s != nil && s.transit == 0 {
		s.transit = at
	}
}

// onJoin stamps the joined batch join probe j sees per flow. A batch is a
// 2-byte sample count followed by the samples (core.EncodeBatch).
func (p *pass) onJoin(j int) mqttclient.Handler {
	return func(msg mqttclient.Message) {
		at := p.now()
		if len(msg.Payload) < 2+sensor.SampleSize {
			p.malformed.Add(1)
			return
		}
		smp, err := sensor.DecodeSample(msg.Payload[2 : 2+sensor.SampleSize])
		if err != nil {
			p.malformed.Add(1)
			return
		}
		if s := p.slotFor(uint64(smp.Seq)); s != nil && s.join[j] == 0 {
			s.join[j] = at
		}
	}
}

// sampleLanes tracks the deepest module dispatch lane seen in the window.
func (p *pass) sampleLanes(stop <-chan struct{}) {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			if now := p.now(); now < p.windowStart || now > p.windowEnd {
				continue
			}
			for _, reg := range p.st.modRegs {
				for _, s := range reg.Samples() {
					if s.Name == "ifot_client_lane_depth" && s.Value > p.laneDepthMax {
						p.laneDepthMax = s.Value
					}
				}
			}
		}
	}
}
