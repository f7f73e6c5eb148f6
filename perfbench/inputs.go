package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync/atomic"

	"github.com/ifot-middleware/ifot/internal/sensor"
)

// slot is the harness's record of one flow, preallocated off-heap so the
// generator and sink write into it without allocating. Times are
// nanoseconds after the pass's epoch; zero means "not yet".
type slot struct {
	due      int64    // when the flow was due (closed loop: when it was released)
	late     int64    // how long after due the generator began publishing it
	sent     int64    // traced: when its first Publish began
	sentLast int64    // traced: when its last Publish returned
	out      [2]int64 // when each output kind reached the sink
	done     int64    // when its last output reached the sink
	transit  int64    // traced: when a transit probe received its first sample
	join     [2]int64 // traced: when each join probe received its batch
	score    float64  // Decision.Score
	arrived  atomic.Int32
	device   uint16
	truth    uint8 // fig9: the trainer's label; fleet: labelAnomaly on a spike
	label    uint8 // Decision.Label as a label code
}

// rawSample is a generated reading before it is encoded, with the index
// of its topic in inputs.topicNames.
type rawSample struct {
	values [3]float32
	topic  uint32
	index  uint16
	kind   uint8
}

// chunkFlows is how many flows one chunk of inputs holds. A closed loop
// adds a chunk whenever it has released every flow generated so far, so
// its inputs grow with the rate the stack completes flows at.
const chunkFlows = 1 << 14

// maxChunks sizes the chunk table: 2^26 flows, far more than memory holds
// (one flow takes about 250 bytes).
const maxChunks = 1 << 12

// chunk holds chunkFlows flows: their slots, and perFlow samples each as
// generated and as encoded 32-byte payloads.
type chunk struct {
	slots   []slot
	raw     []rawSample
	payload [][sensor.SampleSize]byte
	maps    []interface{ free() }
}

// inputs holds one pass's generated flows, perFlow samples each. Flow i
// is sent with sequence number i+1. The generator adds flows with grow;
// the sink only reads flows below ready.
type inputs struct {
	perFlow    int
	topicNames []string
	rng        *rand.Rand
	fill       func(rng *rand.Rand, in *inputs, lo, hi int)
	chunks     []*chunk // maxChunks entries; the first flows/chunkFlows are set
	flows      int      // flows generated (owned by the generator)
	ready      atomic.Int64
}

// newInputs generates the first flows of w from seed.
func newInputs(w *workload, flows int, seed int64) (*inputs, error) {
	in := &inputs{
		perFlow: w.samplesPerFlow,
		rng:     rand.New(rand.NewSource(seed)),
		fill:    w.fill,
		chunks:  make([]*chunk, maxChunks),
	}
	if err := in.grow(flows); err != nil {
		in.free()
		return nil, err
	}
	return in, nil
}

// grow generates and encodes n more flows, drawing on the same random
// stream, so a seed gives the same flows however they are grown.
func (in *inputs) grow(n int) error {
	lo, hi := in.flows, in.flows+n
	for c := (lo + chunkFlows - 1) / chunkFlows; c*chunkFlows < hi; c++ {
		if c >= maxChunks {
			return fmt.Errorf("inputs: more than %d flows", maxChunks*chunkFlows)
		}
		ch, err := newChunk(in.perFlow)
		if err != nil {
			return err
		}
		in.chunks[c] = ch
	}
	in.fill(in.rng, in, lo, hi)
	for i := lo; i < hi; i++ {
		for k := 0; k < in.perFlow; k++ {
			r := in.sample(i, k)
			s := sensor.Sample{SensorIndex: r.index, Kind: sensor.Type(r.kind), Seq: uint32(i + 1), Values: r.values}
			copy(in.payload(i, k), s.Encode())
		}
	}
	in.flows = hi
	in.ready.Store(int64(hi)) // publishes the new chunks to the sink
	return nil
}

func newChunk(perFlow int) (*chunk, error) {
	ch := &chunk{}
	slots, err := mapOffHeap[slot](chunkFlows)
	if err != nil {
		return nil, err
	}
	ch.maps = append(ch.maps, slots)
	raw, err := mapOffHeap[rawSample](chunkFlows * perFlow)
	if err != nil {
		ch.free()
		return nil, err
	}
	ch.maps = append(ch.maps, raw)
	payload, err := mapOffHeap[[sensor.SampleSize]byte](chunkFlows * perFlow)
	if err != nil {
		ch.free()
		return nil, err
	}
	ch.maps = append(ch.maps, payload)
	ch.slots, ch.raw, ch.payload = slots.items, raw.items, payload.items
	return ch, nil
}

func (ch *chunk) free() {
	for _, m := range ch.maps {
		m.free()
	}
	ch.maps = nil
}

func (in *inputs) free() {
	for i, ch := range in.chunks {
		if ch != nil {
			ch.free()
			in.chunks[i] = nil
		}
	}
}

func (in *inputs) slot(i int) *slot { return &in.chunks[i/chunkFlows].slots[i%chunkFlows] }

func (in *inputs) sample(i, k int) *rawSample {
	return &in.chunks[i/chunkFlows].raw[i%chunkFlows*in.perFlow+k]
}

// payload is flow i's k-th sample in its wire form.
func (in *inputs) payload(i, k int) []byte {
	return in.chunks[i/chunkFlows].payload[i%chunkFlows*in.perFlow+k][:]
}

// stamp sets the sensing time of flow i's samples, in Unix nanoseconds,
// in place: a sensor.Sample carries it big-endian in bytes 8-16.
func (in *inputs) stamp(i int, unixNano int64) {
	for k := 0; k < in.perFlow; k++ {
		binary.BigEndian.PutUint64(in.payload(i, k)[8:16], uint64(unixNano))
	}
}

// decoded returns flow i's k-th sample as the modules decode it.
func (in *inputs) decoded(i, k int) sensor.Sample {
	s, err := sensor.DecodeSample(in.payload(i, k))
	if err != nil {
		panic(err) // grow encoded it: a bug, not an input
	}
	return s
}
