package main

import (
	"fmt"
	"math/rand"
	"net"
	"time"

	"github.com/ifot-middleware/ifot/internal/broker"
	"github.com/ifot-middleware/ifot/internal/core"
	"github.com/ifot-middleware/ifot/internal/feature"
	"github.com/ifot-middleware/ifot/internal/ml"
	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// mixConfig parameterizes the live MIX weight-exchange run.
type mixConfig struct {
	rounds   int
	features int
}

type mixSample struct {
	v     feature.Vector
	label string
}

func mixStream(n, nFeatures int) []mixSample {
	rng := rand.New(rand.NewSource(42))
	labels := []string{"idle", "walk", "run", "fall"}
	out := make([]mixSample, n)
	for i := range out {
		v := make(feature.Vector, 8)
		sum := 0.0
		for f := 0; f < 8; f++ {
			x := rng.Float64()*2 - 1
			v[fmt.Sprintf("f%d@mean", rng.Intn(nFeatures))] = x
			sum += x
		}
		out[i] = mixSample{v: v, label: labels[(i+int(sum*7))%4&3]}
	}
	return out
}

// runMix drives the MIX weight-exchange path end to end on the real stack:
// a trainer model exports each round, the payload crosses a loopback-TCP
// broker, and a receiving peer decodes and folds it in. The two wire
// strategies are compared on the same training load — the binary codec
// carrying full state, and the binary delta carrying only the round's
// updates.
func runMix(cfg mixConfig) error {
	br := broker.New(broker.Options{})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer l.Close()
	go func() { _ = br.Serve(l) }()
	defer br.Close()
	addr := l.Addr().String()

	warmup := mixStream(4000, cfg.features)
	rounds := mixStream(cfg.rounds, cfg.features)
	syms := feature.DefaultSymbols()
	const trainPerRound = 16

	newTrained := func(track bool) *ml.PassiveAggressive {
		m := ml.NewPassiveAggressive(0.1)
		if track {
			m.EnableDeltaTracking()
		}
		for _, s := range warmup {
			m.Train(s.v, s.label)
		}
		return m
	}
	dial := func(id string) (*mqttclient.Client, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return mqttclient.Connect(conn, mqttclient.NewOptions(id))
	}

	fmt.Printf("MIX weight exchange over loopback TCP broker (%d features, %d train/round, %d rounds):\n\n",
		cfg.features, trainPerRound, cfg.rounds)
	fmt.Printf("  %-13s %10s %14s %12s %12s\n", "strategy", "rounds/s", "payload B/rnd", "wire KB/s", "us/round")

	type mode struct {
		name  string
		delta bool // export deltas instead of full state
	}
	for _, md := range []mode{
		{name: "binary-full"},
		{name: "binary-delta", delta: true},
	} {
		trainer := newTrained(md.delta)
		receiver := ml.NewPassiveAggressive(0.1)
		topic := "bench/mix/" + md.name

		sub, err := dial("mix-sub-" + md.name)
		if err != nil {
			return err
		}
		pub, err := dial("mix-pub-" + md.name)
		if err != nil {
			return err
		}

		done := make(chan struct{}, 1)
		var rxDelta ml.MixDelta
		_, _, err = sub.SubscribeHandle(topic, wire.QoS0, func(msg mqttclient.Message) {
			if h, err := core.DecodeMix(msg.Payload, syms, &rxDelta); err == nil {
				if h.Keyframe {
					receiver.ImportDense(&rxDelta)
				} else {
					receiver.ApplyDelta(&rxDelta, 0.5)
				}
			}
			done <- struct{}{}
		})
		if err != nil {
			return err
		}

		if md.delta {
			// Bootstrap the receiver once, then steady-state deltas.
			var kf ml.MixDelta
			trainer.ExportDenseInto(&kf)
			receiver.ImportDense(&kf)
			trainer.ExportDeltaInto(&kf) // drain warmup updates
		}

		var (
			enc        []byte
			d          ml.MixDelta
			totalBytes int64
		)
		start := time.Now()
		for i, s := range rounds {
			for k := 0; k < trainPerRound; k++ {
				trainer.Train(s.v, s.label)
			}
			h := core.MixHeader{ModuleID: "bench", Round: uint64(i + 1), Keyframe: !md.delta, At: time.Now()}
			if md.delta {
				trainer.ExportDeltaInto(&d)
			} else {
				trainer.ExportDenseInto(&d)
			}
			enc = core.AppendEncodeMix(enc[:0], h, &d, syms)
			totalBytes += int64(len(enc))
			if err := pub.Publish(topic, enc, wire.QoS0, false); err != nil {
				return err
			}
			<-done // receiver decoded and imported: round complete
		}
		elapsed := time.Since(start)

		perRound := elapsed / time.Duration(cfg.rounds)
		fmt.Printf("  %-13s %10.0f %14.0f %12.0f %12.1f\n",
			md.name,
			float64(cfg.rounds)/elapsed.Seconds(),
			float64(totalBytes)/float64(cfg.rounds),
			float64(totalBytes)/1024/elapsed.Seconds(),
			float64(perRound.Nanoseconds())/1e3,
		)
		sub.Close()
		pub.Close()
	}
	fmt.Println("\nbinary-delta ships only the weights each round touched; the")
	fmt.Println("retained keyframe cadence (ifot-neuron -mix-keyframe) bounds joiner catch-up.")
	return nil
}
