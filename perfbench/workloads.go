package main

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/sensor"
)

// Module IDs of the two neuron modules every workload deploys onto.
const (
	moduleE = "moduleE"
	moduleF = "moduleF"
)

// warmup runs before every measured window. It covers the first MIX round
// (modules publish weights every 2 s by default), so predictions in the
// window come from a synced model, and lets caches and pools fill.
const warmup = 3 * time.Second

// Output kinds a flow produces at the sink.
const (
	outTrain    = iota // core.TrainEvent JSON
	outDecision        // core.Decision JSON
)

// output is one topic the sink subscribes to and the kind of payload on it.
type output struct {
	topic string
	kind  int
}

// workload is one input set the benchmark drives through the live stack.
type workload struct {
	name string
	why  string
	// outputs lists what every flow must produce; the flow completes when
	// the sink holds all of them.
	outputs []output
	// samplesPerFlow is how many sensor samples the generator publishes
	// for one flow (all due at the same instant).
	samplesPerFlow int
	// rate is the offered load in flows per second; zero makes the loop
	// closed.
	rate float64
	// window bounds the flows in flight. A closed loop keeps exactly this
	// many in flight. An open loop holds a due flow back while this many
	// are in flight, until one completes; its latency still counts from
	// its due time. The bound keeps every broker session queue below its
	// 256 messages, so a stall of the (shared) host delays flows instead
	// of making the broker shed them.
	window int
	// transitProbes (sensor topics) and joinProbes (joined-batch topics)
	// are subscribed next to the sink in the traced pass, timing broker
	// transit and the join.
	transitProbes []string
	joinProbes    []string
	recipe        func() *recipe.Recipe
	// fill generates flows lo to hi into in from rng: the sample values,
	// topics and per-flow ground truth.
	fill func(rng *rand.Rand, in *inputs, lo, hi int)
}

func (w *workload) closedLoop() bool { return w.rate == 0 }

// outputKinds reports which output kinds every flow must produce, and how
// many that is.
func (w *workload) outputKinds() (expect [2]bool, n int32) {
	for _, o := range w.outputs {
		if !expect[o.kind] {
			expect[o.kind] = true
			n++
		}
	}
	return expect, n
}

// Fig. 9 workloads: three sensor streams joined separately on module E
// (Learning class) and module F (Judging class, model synced by MIX).
var fig9Sensors = []string{"fig9/s0", "fig9/s1", "fig9/s2"}

var fig9Outputs = []output{{"fig9/train", outTrain}, {"fig9/predict", outDecision}}

const (
	fig9PacedRate   = 4000  // flows/s; ~30 % of fig9-saturate's capacity on a 2-core host
	fig9PacedWindow = 48    // 48 flows × 5 messages (2 outputs, 3 probes) to the sink ≤ 256
	fig9SatWindow   = 32    // flows in flight in the closed loop
	fleetDevices    = 12288 // device topics; above the broker's 8,192-topic route cache
	fleetRate       = 6000  // samples/s; ~35 % of the 12,288-device capacity
	fleetWindow     = 192   // 192 decisions to the sink ≤ 256 (~30 ms at fleetRate)
	fleetSpikeEvery = 32    // one device in this many gets one spike
	fleetSpikeSigma = 60    // spike height in the device's standard deviations
	fleetSpikeAfter = 4     // samples a device sends before its spike may come

	// anomalyThreshold is the z-score above which a decision reads
	// "anomaly"; the fleet recipe passes it to the anomaly tasks.
	anomalyThreshold = 3
)

var workloads = []*workload{
	{
		name:           "fig9-paced",
		why:            "Paper Fig. 9 join->train/predict recipe, open loop at 4,000 flows/s (~30% of capacity): the Table II/III latencies on the live stack",
		outputs:        fig9Outputs,
		samplesPerFlow: len(fig9Sensors),
		rate:           fig9PacedRate,
		window:         fig9PacedWindow,
		transitProbes:  fig9Sensors[:1],
		joinProbes:     []string{"fig9/joinedE", "fig9/joinedF"},
		recipe:         fig9Recipe,
		fill:           fillFig9,
	},
	{
		name:           "fig9-saturate",
		why:            "Same recipe, closed loop with 32 flows in flight: capacity in flows/s, where batching that helps throughput can hurt fig9-paced latency",
		outputs:        fig9Outputs,
		samplesPerFlow: len(fig9Sensors),
		window:         fig9SatWindow,
		transitProbes:  fig9Sensors[:1],
		joinProbes:     []string{"fig9/joinedE", "fig9/joinedF"},
		recipe:         fig9Recipe,
		fill:           fillFig9,
	},
	{
		name:           "fleet-anomaly",
		why:            "12,288 device topics at 6,000 samples/s, a z-score anomaly task per zone, seeded spikes: bypasses join/learner/MIX; topics exceed the broker route cache",
		outputs:        []output{{"fleet/out/z0", outDecision}, {"fleet/out/z1", outDecision}},
		samplesPerFlow: 1,
		rate:           fleetRate,
		window:         fleetWindow,
		transitProbes:  fleetTopics()[:32],
		recipe:         fleetRecipe,
		fill:           fillFleet,
	},
}

func findWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

func fig9Recipe() *recipe.Recipe {
	inputs := append([]string(nil), fig9Sensors...)
	return &recipe.Recipe{Name: "fig9", Tasks: []recipe.Task{
		{ID: "joinE", Kind: recipe.KindAggregate, Inputs: inputs, Output: "fig9/joinedE",
			Placement: recipe.Placement{Module: moduleE}},
		{ID: "train", Kind: recipe.KindTrain, Inputs: []string{"task:joinE"}, Output: "fig9/train",
			Placement: recipe.Placement{Module: moduleE}},
		{ID: "joinF", Kind: recipe.KindAggregate, Inputs: inputs, Output: "fig9/joinedF",
			Placement: recipe.Placement{Module: moduleF}},
		{ID: "predict", Kind: recipe.KindPredict, Inputs: []string{"task:joinF"}, Output: "fig9/predict",
			Params: map[string]string{"modelFrom": "train"}, Placement: recipe.Placement{Module: moduleF}},
	}}
}

func fleetRecipe() *recipe.Recipe {
	return &recipe.Recipe{Name: "fleet", Tasks: []recipe.Task{
		{ID: "anomZ0", Kind: recipe.KindAnomaly, Inputs: []string{"fleet/z0/+"}, Output: "fleet/out/z0",
			Params: map[string]string{"detector": "zscore", "threshold": "3"}, Placement: recipe.Placement{Module: moduleE}},
		{ID: "anomZ1", Kind: recipe.KindAnomaly, Inputs: []string{"fleet/z1/+"}, Output: "fleet/out/z1",
			Params: map[string]string{"detector": "zscore", "threshold": "3"}, Placement: recipe.Placement{Module: moduleF}},
	}}
}

// Ground-truth codes stored per flow, and decision labels as the sink
// reads them.
const (
	labelNone    uint8 = iota // no label field
	labelPos                  // "pos"
	labelNeg                  // "neg"
	labelNormal               // "normal"
	labelAnomaly              // "anomaly"
	labelOther                // anything else
)

// fillFig9 draws three accelerometer samples for each of flows lo to hi.
// The trainer labels a batch by the sign of its summed channel 0, so the
// generator records that label as the truth the predictor is scored
// against.
func fillFig9(rng *rand.Rand, in *inputs, lo, hi int) {
	for i := lo; i < hi; i++ {
		var sum float64
		for k := range fig9Sensors {
			s := in.sample(i, k)
			s.index = uint16(k)
			s.kind = uint8(sensor.Accelerometer)
			s.values = [3]float32{float32(rng.NormFloat64()), float32(rng.NormFloat64()), float32(rng.NormFloat64())}
			s.topic = uint32(k)
			sum += float64(s.values[0])
		}
		in.slot(i).truth = labelPos
		if sum < 0 {
			in.slot(i).truth = labelNeg
		}
	}
	in.topicNames = fig9Sensors
}

// fillFleet cycles a seeded permutation of the devices, one sample per
// flow, so every device reports at the same rate and the topic working set
// is the whole fleet. One device in fleetSpikeEvery gets a single spike at
// a seeded position (one per device, so an earlier spike cannot inflate
// the variance that must flag a later one). The spike positions depend on
// the run's length, so the fleet (an open loop) fills all its flows at
// once: lo is 0.
func fillFleet(rng *rand.Rand, in *inputs, lo, hi int) {
	if lo != 0 {
		panic("fillFleet: the fleet's flows are generated at once")
	}
	perm := rng.Perm(fleetDevices)
	mean := make([]float64, fleetDevices)
	sigma := make([]float64, fleetDevices)
	spikeAt := make([]int, fleetDevices) // device's sample index of its spike, -1 for none
	perDevice := hi / fleetDevices
	for d := range mean {
		mean[d] = 15 + 15*rng.Float64()
		sigma[d] = 0.5 + 1.5*rng.Float64()
		spikeAt[d] = -1
		if rng.Intn(fleetSpikeEvery) == 0 && perDevice > fleetSpikeAfter {
			spikeAt[d] = fleetSpikeAfter + rng.Intn(perDevice-fleetSpikeAfter)
		}
	}
	for i := 0; i < hi; i++ {
		d := perm[i%fleetDevices]
		s := in.sample(i, 0)
		s.index = uint16(d)
		s.kind = uint8(sensor.Temperature)
		s.topic = uint32(d)
		for c := range s.values {
			s.values[c] = float32(mean[d] + float64(c) + sigma[d]*rng.NormFloat64())
		}
		in.slot(i).device = uint16(d)
		if i/fleetDevices == spikeAt[d] {
			s.values[0] = float32(mean[d] + fleetSpikeSigma*sigma[d])
			in.slot(i).truth = labelAnomaly
		}
	}
	in.topicNames = fleetTopics()
}

// fleetTopic names device d's topic: fleet/<zone>/<id>, zones alternating.
func fleetTopic(d int) string { return fmt.Sprintf("fleet/z%d/%d", d%2, d) }

func fleetTopics() []string {
	out := make([]string, fleetDevices)
	for d := range out {
		out[d] = fleetTopic(d)
	}
	return out
}
