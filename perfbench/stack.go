package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"github.com/ifot-middleware/ifot/internal/broker"
	"github.com/ifot-middleware/ifot/internal/core"
	"github.com/ifot-middleware/ifot/internal/mqttclient"
	"github.com/ifot-middleware/ifot/internal/recipe"
	"github.com/ifot-middleware/ifot/internal/telemetry"
)

// stack is the system under test in one process: a broker on loopback TCP,
// a manager and two neuron modules, each configured as its daemon is with
// -telemetry. The broker runs in memory, so its event log (which only
// reports durability faults) never has anything to export.
type stack struct {
	br        *broker.Broker
	brReg     *telemetry.Registry
	serveDone chan struct{}
	addr      string
	mgr       *core.Manager
	mods      []*core.Module
	modRegs   []*telemetry.Registry
	socks     *sockCounts // nil: sockets are not counted
	setup     setupTimes
}

// setupTimes splits set-up: broker listen to both modules announced at
// the manager, Deploy, then WaitRunning.
type setupTimes struct {
	announce, deploy, waitRunning time.Duration
}

func (t setupTimes) total() time.Duration { return t.announce + t.deploy + t.waitRunning }

// startStack brings the stack up and deploys rec onto it.
func startStack(rec *recipe.Recipe, socks *sockCounts) (*stack, error) {
	s := &stack{socks: socks, serveDone: make(chan struct{})}
	start := time.Now()

	s.brReg = telemetry.NewRegistry()
	events := telemetry.NewEventLog(telemetry.DefaultEventCapacity)
	events.BindRegistry(s.brReg, telemetry.L("module", "ifot-broker"))
	s.br = broker.New(broker.Options{Registry: s.brReg, Events: events})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = s.br.Close() // nothing was served yet
		return nil, fmt.Errorf("broker listen: %w", err)
	}
	s.addr = l.Addr().String()
	var ln net.Listener = l
	if socks != nil {
		ln = countingListener{Listener: l, c: socks}
	}
	go func() {
		defer close(s.serveDone)
		_ = s.br.Serve(ln) // returns ErrClosed once close runs
	}()

	// The manager starts first so it sees the modules' first announce.
	s.mgr = core.NewManager(core.ManagerConfig{
		Dial:      s.dial,
		Telemetry: telemetry.NewRegistry(),
	})
	if err := s.mgr.Start(); err != nil {
		s.mgr = nil
		s.close()
		return nil, fmt.Errorf("manager start: %w", err)
	}
	for _, id := range []string{moduleE, moduleF} {
		reg := telemetry.NewRegistry()
		m := core.NewModule(moduleConfig(id, reg, s.dial))
		if err := m.Start(); err != nil {
			s.close()
			return nil, fmt.Errorf("module %s start: %w", id, err)
		}
		s.mods = append(s.mods, m)
		s.modRegs = append(s.modRegs, reg)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(s.mgr.Modules()) < len(s.mods) {
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("only %d of %d modules announced", len(s.mgr.Modules()), len(s.mods))
		}
		time.Sleep(100 * time.Microsecond)
	}
	announced := time.Now()

	dep, err := s.mgr.Deploy(rec)
	if err != nil {
		s.close()
		return nil, fmt.Errorf("deploy %s: %w", rec.Name, err)
	}
	deployed := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	if err := dep.WaitRunning(ctx); err != nil {
		s.close()
		return nil, fmt.Errorf("deploy %s: %w (pending %v)", rec.Name, err, dep.PendingTasks())
	}
	running := time.Now()
	s.setup = setupTimes{
		announce:    announced.Sub(start),
		deploy:      deployed.Sub(announced),
		waitRunning: running.Sub(deployed),
	}
	return s, nil
}

// moduleConfig mirrors ifot-neuron's configuration with -telemetry set and
// every other flag at its default: registry on, 1-in-32 trace sampling,
// spans and events exported every second.
func moduleConfig(id string, reg *telemetry.Registry, dial func() (net.Conn, error)) core.Config {
	events := telemetry.NewEventLog(telemetry.DefaultEventCapacity)
	events.SetExportBuffer(0)
	tracer := telemetry.NewTracer(nil, telemetry.DefaultTraceCapacity)
	tracer.BindRegistry(reg, "")
	return core.Config{
		ID:                  id,
		CapacityOps:         1000,
		Dial:                dial,
		Telemetry:           reg,
		Tracer:              tracer,
		TraceExportInterval: time.Second,
		TraceExportBuffer:   telemetry.DefaultSpanExportBuffer,
		TraceSampleEvery:    32,
		Events:              events,
		EventExportInterval: time.Second,
	}
}

// dial opens a client connection to the broker, counted when the stack
// counts sockets.
func (s *stack) dial() (net.Conn, error) {
	c, err := net.Dial("tcp", s.addr)
	if err != nil {
		return nil, err
	}
	if s.socks != nil {
		return &clientConn{Conn: c, c: s.socks}, nil
	}
	return c, nil
}

// client connects one harness MQTT client (generator or sink).
func (s *stack) client(id string) (*mqttclient.Client, error) {
	conn, err := s.dial()
	if err != nil {
		return nil, fmt.Errorf("%s dial: %w", id, err)
	}
	c, err := mqttclient.Connect(conn, mqttclient.NewOptions(id))
	if err != nil {
		_ = conn.Close()
		return nil, fmt.Errorf("%s connect: %w", id, err)
	}
	return c, nil
}

// close stops the modules, the manager and the broker, and waits for the
// broker's accept loop to end.
func (s *stack) close() {
	for _, m := range s.mods {
		_ = m.Close() // teardown: the run's results are already taken
	}
	if s.mgr != nil {
		_ = s.mgr.Close()
	}
	_ = s.br.Close()
	<-s.serveDone
}
