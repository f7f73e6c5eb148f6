package broker

import (
	"encoding/json"
	"fmt"
	"log"
	"sort"
	"sync/atomic"
	"time"

	"github.com/ifot-middleware/ifot/internal/store"
	"github.com/ifot-middleware/ifot/internal/telemetry"
	"github.com/ifot-middleware/ifot/internal/wire"
)

// Broker durability. When Options.Store is set, the broker journals every
// state mutation that must survive a restart — retained messages,
// persistent-session lifecycle and subscriptions, QoS 1 inflight/queued
// messages — as one WAL record each, and Open replays snapshot + WAL to
// rebuild that state before accepting connections.
//
// The journaling rules follow the broker's locking model: each record is
// appended while holding the same lock that guards the in-memory mutation
// (retainedMu for retained, session.mu for queues, b.mu for subscriptions
// and session lifecycle), so WAL order equals effective memory order. The
// store's Append is a buffered write behind its own leaf mutex — cheap
// enough to sit on those paths — and durability comes from group-commit
// (one fsync covers every append in the window), so the QoS0 fan-out hot
// path pays nothing and the QoS1 path pays a memcpy, not an fsync.
//
// Replay idempotency: records between a snapshot's log mark and its
// capture can be applied twice (once inside the snapshot, once from the
// tail). Retained/subscription records are last-writer-wins; QoS1 queue
// records carry a broker-wide message ID and are deduplicated on replay;
// acks for unknown IDs are no-ops.

// persist record ops.
const (
	opRetain = "ret"    // retained message set/delete (empty payload deletes)
	opSess   = "sess"   // persistent session (re)created fresh
	opSessRm = "sessrm" // session state discarded (clean-session reconnect)
	opSub    = "sub"    // subscription added
	opUnsub  = "unsub"  // subscription removed
	opQueue  = "q"      // QoS1 message entered a persistent session's window
	opAck    = "ack"    // QoS1 message acked (or dropped by queue overflow)
)

// persistRec is the JSON wire form of one WAL record.
type persistRec struct {
	Op      string `json:"op"`
	Client  string `json:"client,omitempty"`
	Topic   string `json:"topic,omitempty"`
	Filter  string `json:"filter,omitempty"`
	Payload []byte `json:"payload,omitempty"`
	QoS     byte   `json:"qos,omitempty"`
	ID      uint64 `json:"id,omitempty"`
}

// persistSnapshot is the JSON blob handed to Snapshotter.SaveSnapshot.
type persistSnapshot struct {
	MsgSeq   uint64         `json:"msg_seq"`
	Retained []snapRetained `json:"retained,omitempty"`
	Sessions []snapSession  `json:"sessions,omitempty"`
}

type snapRetained struct {
	Topic   string `json:"topic"`
	Payload []byte `json:"payload"`
	QoS     byte   `json:"qos"`
}

type snapSession struct {
	ClientID string          `json:"client"`
	Subs     map[string]byte `json:"subs,omitempty"`
	Msgs     []snapMsg       `json:"msgs,omitempty"` // inflight then queued, delivery order
}

type snapMsg struct {
	ID      uint64 `json:"id"`
	Topic   string `json:"topic"`
	Payload []byte `json:"payload"`
	QoS     byte   `json:"qos"`
}

// persister owns the broker's journal handle and the broker-wide message
// ID sequence that makes QoS1 queue records idempotent on replay.
type persister struct {
	journal *store.Journal
	msgSeq  atomic.Uint64
	logger  *log.Logger
	events  *telemetry.EventLog
	// degraded latches on the first append failure so the event log sees
	// one persist_degraded per outage (every failed append still logs),
	// and a persist_recovered when appends succeed again.
	degraded atomic.Bool
}

func (pp *persister) nextMsgID() uint64 { return pp.msgSeq.Add(1) }

// append journals one record. Journal errors (disk full, store closed
// during shutdown) are logged, not propagated: the broker keeps serving
// from memory — degraded durability beats a dead broker on an edge node.
func (pp *persister) append(rec persistRec) {
	buf, err := json.Marshal(rec)
	if err != nil {
		pp.logf("broker persist: marshal %s: %v", rec.Op, err)
		return
	}
	if err := pp.journal.Append(buf); err != nil {
		pp.logf("broker persist: append %s: %v", rec.Op, err)
		if pp.degraded.CompareAndSwap(false, true) {
			pp.events.Eventf(telemetry.SevError, "", "persist_degraded",
				"op", rec.Op, "error", err.Error())
		}
		return
	}
	if pp.degraded.CompareAndSwap(true, false) {
		pp.events.Eventf(telemetry.SevInfo, "", "persist_recovered")
	}
}

func (pp *persister) logf(format string, args ...any) {
	if pp.logger != nil {
		pp.logger.Printf(format, args...)
	}
}

// noteQueued assigns a message ID and journals a QoS1 message entering
// the client's persistent window. Called under session.mu.
func (pp *persister) noteQueued(clientID string, p *wire.PublishPacket) uint64 {
	id := pp.nextMsgID()
	pp.append(persistRec{Op: opQueue, Client: clientID, ID: id, Topic: p.Topic, Payload: p.Payload, QoS: byte(p.QoS)})
	return id
}

// noteAcked journals a QoS1 message leaving the window (PUBACK received,
// or dropped by offline-queue overflow). Called under session.mu.
func (pp *persister) noteAcked(clientID string, id uint64) {
	pp.append(persistRec{Op: opAck, Client: clientID, ID: id})
}

// --- journaling hooks (called from broker.go under the locks noted) ---

// persistRetain journals a retained set/delete. Caller holds retainedMu
// (inside a publish's gate read section), so WAL order matches map order.
func (b *Broker) persistRetain(p *wire.PublishPacket) {
	if b.persist == nil {
		return
	}
	b.persist.append(persistRec{Op: opRetain, Topic: p.Topic, Payload: p.Payload, QoS: byte(p.QoS)})
}

// persistSub journals a persistent session's subscription. Caller holds
// b.mu (write).
func (b *Broker) persistSub(sess *session, filter string, qos wire.QoS) {
	if b.persist == nil || !sess.persistent {
		return
	}
	b.persist.append(persistRec{Op: opSub, Client: sess.clientID, Filter: filter, QoS: byte(qos)})
}

// persistUnsub journals a subscription removal. Caller holds b.mu (write).
func (b *Broker) persistUnsub(sess *session, filter string) {
	if b.persist == nil || !sess.persistent {
		return
	}
	b.persist.append(persistRec{Op: opUnsub, Client: sess.clientID, Filter: filter})
}

// persistSessionFresh journals that clientID's durable state starts fresh
// (new persistent session). Caller holds b.mu (write).
func (b *Broker) persistSessionFresh(clientID string) {
	if b.persist == nil {
		return
	}
	b.persist.append(persistRec{Op: opSess, Client: clientID})
}

// persistSessionRemove journals that clientID's durable state is gone
// (persistent session replaced by a clean one). Caller holds b.mu (write).
func (b *Broker) persistSessionRemove(clientID string) {
	if b.persist == nil {
		return
	}
	b.persist.append(persistRec{Op: opSessRm, Client: clientID})
}

// --- snapshot capture ---

// captureState serializes the broker's durable state. It runs inside
// Snapshotter.SaveSnapshot on the journal's background goroutine and takes
// the broker's locks in the canonical order (mu ⊃ retainedMu, session.mu),
// never inverting the order used by the append paths. Each domain is
// captured point-in-time under its own append lock (retainedMu for the
// retained map, session.mu per session); publishes running concurrently
// with the capture — mu no longer excludes them under epoch-published
// routing — land their WAL records after the journal's rotation mark, so
// replay over the snapshot reapplies them idempotently (last-writer-wins
// retained records, ID-deduplicated queue records).
func (b *Broker) captureState() ([]byte, error) {
	snap := persistSnapshot{MsgSeq: b.persist.msgSeq.Load()}

	b.mu.Lock()
	b.retainedMu.Lock()
	for topic, msg := range b.retained {
		snap.Retained = append(snap.Retained, snapRetained{Topic: topic, Payload: msg.payload, QoS: byte(msg.qos)})
	}
	b.retainedMu.Unlock()
	for _, sess := range b.sessions {
		if !sess.persistent {
			continue
		}
		snap.Sessions = append(snap.Sessions, sess.snapshotLocked())
	}
	b.mu.Unlock()

	// Deterministic blob: handy for tests and dedup-friendly on disk.
	sort.Slice(snap.Retained, func(i, j int) bool { return snap.Retained[i].Topic < snap.Retained[j].Topic })
	sort.Slice(snap.Sessions, func(i, j int) bool { return snap.Sessions[i].ClientID < snap.Sessions[j].ClientID })
	return json.Marshal(snap)
}

// snapshotLocked captures one session's durable state. Takes session.mu
// (caller holds b.mu, matching the lock order).
func (s *session) snapshotLocked() snapSession {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := snapSession{ClientID: s.clientID}
	if len(s.subscriptions) > 0 {
		out.Subs = make(map[string]byte, len(s.subscriptions))
		for f, q := range s.subscriptions {
			out.Subs[f] = byte(q)
		}
	}
	// Inflight first (they redeliver first on attach), ordered by message
	// ID so the blob is deterministic; then the offline queue in order.
	type flight struct {
		id  uint64
		pkt *wire.PublishPacket
	}
	inf := make([]flight, 0, len(s.inflight))
	for pid, p := range s.inflight {
		inf = append(inf, flight{id: s.inflightIDs[pid], pkt: p})
	}
	sort.Slice(inf, func(i, j int) bool { return inf[i].id < inf[j].id })
	for _, f := range inf {
		out.Msgs = append(out.Msgs, snapMsg{ID: f.id, Topic: f.pkt.Topic, Payload: f.pkt.Payload, QoS: byte(f.pkt.QoS)})
	}
	for i, p := range s.queued {
		var id uint64
		if i < len(s.queuedIDs) {
			id = s.queuedIDs[i]
		}
		out.Msgs = append(out.Msgs, snapMsg{ID: id, Topic: p.Topic, Payload: p.Payload, QoS: byte(p.QoS)})
	}
	return out
}

// --- recovery ---

// recoverState rebuilds broker state from the store's snapshot and WAL
// tail. It runs single-threaded from Open, before the broker is shared,
// so it mutates maps directly.
func (b *Broker) recoverState(st store.Store) error {
	start := time.Now()
	// seen tracks per-client message IDs already applied, deduplicating
	// queue records that appear both in the snapshot and the WAL tail.
	seen := make(map[string]map[uint64]bool)
	var maxID uint64

	blob, err := st.LoadSnapshot()
	if err != nil {
		return fmt.Errorf("broker: load snapshot: %w", err)
	}
	if blob != nil {
		var snap persistSnapshot
		if err := json.Unmarshal(blob, &snap); err != nil {
			return fmt.Errorf("broker: decode snapshot: %w", err)
		}
		if snap.MsgSeq > maxID {
			maxID = snap.MsgSeq
		}
		for _, r := range snap.Retained {
			b.retained[r.Topic] = retainedMsg{payload: r.Payload, qos: wire.QoS(r.QoS)}
		}
		for _, ss := range snap.Sessions {
			sess := b.recoverSession(ss.ClientID)
			for f, q := range ss.Subs {
				b.routes.Store(b.routes.Load().subscribe(f, sess, wire.QoS(q)))
				sess.subscriptions[f] = wire.QoS(q)
			}
			ids := seen[ss.ClientID]
			for _, m := range ss.Msgs {
				if m.ID > maxID {
					maxID = m.ID
				}
				if ids == nil {
					ids = make(map[uint64]bool)
					seen[ss.ClientID] = ids
				}
				ids[m.ID] = true
				sess.recoverQueued(&wire.PublishPacket{Topic: m.Topic, Payload: m.Payload, QoS: wire.QoS(m.QoS)}, m.ID)
			}
		}
	}

	replayed := 0
	err = st.Replay(func(data []byte) error {
		var rec persistRec
		if err := json.Unmarshal(data, &rec); err != nil {
			return fmt.Errorf("broker: decode WAL record: %w", err)
		}
		replayed++
		if rec.ID > maxID {
			maxID = rec.ID
		}
		switch rec.Op {
		case opRetain:
			if len(rec.Payload) == 0 {
				delete(b.retained, rec.Topic)
			} else {
				b.retained[rec.Topic] = retainedMsg{payload: rec.Payload, qos: wire.QoS(rec.QoS)}
			}
		case opSess:
			// Fresh durable state for this client: drop anything earlier.
			b.dropRecoveredSession(rec.Client)
			delete(seen, rec.Client)
			b.recoverSession(rec.Client)
		case opSessRm:
			b.dropRecoveredSession(rec.Client)
			delete(seen, rec.Client)
		case opSub:
			sess := b.recoverSession(rec.Client)
			b.routes.Store(b.routes.Load().subscribe(rec.Filter, sess, wire.QoS(rec.QoS)))
			sess.subscriptions[rec.Filter] = wire.QoS(rec.QoS)
		case opUnsub:
			if sess, ok := b.sessions[rec.Client]; ok {
				tbl, _ := b.routes.Load().unsubscribe(rec.Filter, rec.Client)
				b.routes.Store(tbl)
				delete(sess.subscriptions, rec.Filter)
			}
		case opQueue:
			sess := b.recoverSession(rec.Client)
			ids := seen[rec.Client]
			if ids == nil {
				ids = make(map[uint64]bool)
				seen[rec.Client] = ids
			}
			if ids[rec.ID] {
				return nil // duplicated across snapshot boundary
			}
			ids[rec.ID] = true
			sess.recoverQueued(&wire.PublishPacket{Topic: rec.Topic, Payload: rec.Payload, QoS: wire.QoS(rec.QoS)}, rec.ID)
		case opAck:
			if sess, ok := b.sessions[rec.Client]; ok {
				sess.dropRecoveredMsg(rec.ID)
				if ids := seen[rec.Client]; ids != nil {
					delete(ids, rec.ID)
				}
			}
		default:
			b.logf("broker persist: skipping unknown WAL op %q", rec.Op)
		}
		return nil
	})
	if err != nil {
		return err
	}
	b.persist.msgSeq.Store(maxID)

	if rt, ok := st.(interface{ AddRecoveryDuration(time.Duration) }); ok {
		rt.AddRecoveryDuration(time.Since(start))
	}
	if blob != nil || replayed > 0 {
		b.logf("broker: recovered %d retained, %d sessions, %d WAL records in %v",
			len(b.retained), len(b.sessions), replayed, time.Since(start).Round(time.Millisecond))
	}
	return nil
}

// recoverSession returns (creating if needed) the persistent session for
// clientID during recovery.
func (b *Broker) recoverSession(clientID string) *session {
	if sess, ok := b.sessions[clientID]; ok {
		return sess
	}
	sess := newSession(clientID, true)
	sess.persist = b.persist
	b.sessions[clientID] = sess
	return sess
}

// dropRecoveredSession removes a session rebuilt during recovery.
func (b *Broker) dropRecoveredSession(clientID string) {
	sess, ok := b.sessions[clientID]
	if !ok {
		return
	}
	delete(b.sessions, clientID)
	tbl, _ := withoutSession(b.routes.Load(), sess)
	b.routes.Store(tbl)
}

// recoverQueued appends a replayed QoS1 message to the offline queue
// (every recovered message is offline: there are no connections yet).
// Recovery is single-threaded, so no locking.
func (s *session) recoverQueued(p *wire.PublishPacket, msgID uint64) {
	if len(s.queued) >= maxQueuedOffline {
		s.queued = s.queued[1:]
		s.queuedIDs = s.queuedIDs[1:]
		s.droppedMessages.Add(1)
	}
	s.queued = append(s.queued, p)
	s.queuedIDs = append(s.queuedIDs, msgID)
}

// dropRecoveredMsg removes a replayed message by ID (ack record).
func (s *session) dropRecoveredMsg(msgID uint64) {
	for i, id := range s.queuedIDs {
		if id == msgID {
			s.queued = append(s.queued[:i], s.queued[i+1:]...)
			s.queuedIDs = append(s.queuedIDs[:i], s.queuedIDs[i+1:]...)
			return
		}
	}
}
