package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ifot-middleware/ifot/internal/broker"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// throughputConfig parameterizes the broker TCP saturation run.
type throughputConfig struct {
	publishers  int
	subscribers int
	payload     int
	duration    time.Duration
}

// throughputResult is one saturation run's measured rates.
type throughputResult struct {
	sent      int64
	received  int64
	delivered int64
	dropped   int64
	elapsed   time.Duration
}

// runThroughput drives a real broker over loopback TCP to saturation and
// prints the measured rates. Unlike the go-bench fan-out benchmark (which
// paces publishers to measure sustained no-drop delivery), this mode is
// deliberately unpaced: it answers "what does the broker do when offered
// more load than it can deliver".
func runThroughput(cfg throughputConfig) error {
	r, err := measureThroughput(cfg)
	if err != nil {
		return err
	}
	secs := r.elapsed.Seconds()
	fmt.Println("THROUGHPUT: loopback TCP broker saturation (QoS0, unpaced)")
	fmt.Printf("publishers=%d subscribers=%d payload=%dB duration=%s\n",
		cfg.publishers, cfg.subscribers, cfg.payload, r.elapsed.Round(time.Millisecond))
	fmt.Printf("%-12s %12d msgs  %12.0f msgs/sec\n", "sent", r.sent, float64(r.sent)/secs)
	fmt.Printf("%-12s %12d msgs  %12.0f msgs/sec\n", "received", r.received, float64(r.received)/secs)
	fmt.Printf("%-12s %12d msgs  %12.0f msgs/sec\n", "delivered", r.delivered, float64(r.delivered)/secs)
	if r.received > 0 {
		fmt.Printf("%-12s %12d msgs  (%.1f%% of fan-out)\n", "dropped", r.dropped,
			100*float64(r.dropped)/float64(r.received*int64(cfg.subscribers)))
	}
	fmt.Println()
	return nil
}

// runThroughputSweep repeats the saturation run across a GOMAXPROCS ladder
// (1, 4, all cores — deduplicated and capped at the host's core count) so
// the multicore scaling curve of the lock-free publish path is measured on
// one machine in one command. Each row restores the previous GOMAXPROCS
// before moving on.
func runThroughputSweep(cfg throughputConfig) error {
	maxProcs := runtime.NumCPU()
	ladder := []int{1, 4, maxProcs}
	sort.Ints(ladder)
	procs := ladder[:0]
	for _, p := range ladder {
		if p <= maxProcs && (len(procs) == 0 || procs[len(procs)-1] != p) {
			procs = append(procs, p)
		}
	}

	fmt.Println("THROUGHPUT SWEEP: loopback TCP saturation vs GOMAXPROCS")
	fmt.Printf("publishers=%d subscribers=%d payload=%dB duration/run=%s host-cores=%d\n",
		cfg.publishers, cfg.subscribers, cfg.payload, cfg.duration, maxProcs)
	fmt.Printf("%-10s %14s %14s %14s %10s\n",
		"GOMAXPROCS", "recv msgs/sec", "deliv msgs/sec", "sent msgs/sec", "drop%")
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		r, err := measureThroughput(cfg)
		if err != nil {
			return err
		}
		secs := r.elapsed.Seconds()
		dropPct := 0.0
		if r.received > 0 {
			dropPct = 100 * float64(r.dropped) / float64(r.received*int64(cfg.subscribers))
		}
		fmt.Printf("%-10d %14.0f %14.0f %14.0f %9.1f%%\n", p,
			float64(r.received)/secs, float64(r.delivered)/secs, float64(r.sent)/secs, dropPct)
	}
	fmt.Println()
	return nil
}

// measureThroughput runs one saturation measurement: tpubs raw publishers
// each blast a pre-encoded QoS0 PUBLISH frame at one topic while tsubs
// subscribers drain their connections, and the run reports ingress/egress
// message counts plus queue-overflow drops from the broker's own counters.
func measureThroughput(cfg throughputConfig) (throughputResult, error) {
	var res throughputResult
	br := broker.New(broker.Options{SessionQueueSize: 8192})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return res, err
	}
	serveDone := make(chan struct{})
	go func() {
		defer close(serveDone)
		_ = br.Serve(l)
	}()
	addr := l.Addr().String()

	const topic = "bench/throughput"

	// handshake connects a raw client and returns the connection with the
	// buffered reader that serves all of its reads.
	handshake := func(id string) (net.Conn, *bufio.Reader, error) {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, nil, err
		}
		if err := wire.WritePacket(conn, &wire.ConnectPacket{ClientID: id, CleanSession: true}); err != nil {
			conn.Close()
			return nil, nil, err
		}
		r := bufio.NewReader(conn)
		if _, err := wire.ReadPacket(r, 0); err != nil {
			conn.Close()
			return nil, nil, fmt.Errorf("CONNACK: %w", err)
		}
		return conn, r, nil
	}

	// Subscribers: wire-level sinks that subscribe once and then drain.
	subConns := make([]net.Conn, 0, cfg.subscribers)
	for i := 0; i < cfg.subscribers; i++ {
		conn, r, err := handshake(fmt.Sprintf("tsub-%d", i))
		if err != nil {
			return res, err
		}
		subConns = append(subConns, conn)
		sub := &wire.SubscribePacket{
			PacketID:      1,
			Subscriptions: []wire.Subscription{{TopicFilter: topic, QoS: wire.QoS0}},
		}
		if err := wire.WritePacket(conn, sub); err != nil {
			return res, err
		}
		if _, err := wire.ReadPacket(r, 0); err != nil {
			return res, fmt.Errorf("SUBACK: %w", err)
		}
		go io.Copy(io.Discard, r) //nolint:errcheck // sink until closed
	}

	frame, err := wire.Encode(&wire.PublishPacket{Topic: topic, Payload: make([]byte, cfg.payload)})
	if err != nil {
		return res, err
	}

	statsBefore := br.Stats()
	var published atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	pubConns := make([]net.Conn, 0, cfg.publishers)
	for i := 0; i < cfg.publishers; i++ {
		conn, _, err := handshake(fmt.Sprintf("tpub-%d", i))
		if err != nil {
			return res, err
		}
		pubConns = append(pubConns, conn)
		wg.Add(1)
		go func(conn net.Conn) {
			defer wg.Done()
			n := int64(0)
			for {
				select {
				case <-stop:
					published.Add(n)
					return
				default:
				}
				if _, err := conn.Write(frame); err != nil {
					published.Add(n)
					return
				}
				n++
			}
		}(conn)
	}

	start := time.Now()
	time.Sleep(cfg.duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	// Let in-flight queue contents drain before the final snapshot.
	time.Sleep(200 * time.Millisecond)
	stats := br.Stats()

	for _, c := range pubConns {
		c.Close()
	}
	for _, c := range subConns {
		c.Close()
	}
	br.Close()
	<-serveDone

	res.sent = published.Load()
	res.received = stats.MessagesReceived - statsBefore.MessagesReceived
	res.delivered = stats.MessagesDelivered - statsBefore.MessagesDelivered
	res.dropped = stats.MessagesDropped - statsBefore.MessagesDropped
	res.elapsed = elapsed
	return res, nil
}
