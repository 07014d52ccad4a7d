// Package host models the RDMA NIC endpoints: per-flow queue pairs with
// sending windows and packet pacing (§3.2), receiver-side ACK/NACK/CNP
// generation, and the two loss-recovery modes the paper evaluates —
// go-back-N (RoCEv2 default) and IRN-style selective repeat (§5.3,
// Figure 12).
package host

import (
	"fmt"

	"hpcc/internal/cc"
	"hpcc/internal/fabric"
	"hpcc/internal/packet"
	"hpcc/internal/sim"
)

// FlowControl selects the loss-recovery scheme.
type FlowControl int

const (
	// GoBackN is RoCEv2's default: an out-of-sequence arrival triggers
	// a NACK and the sender rewinds to the lost packet.
	GoBackN FlowControl = iota
	// IRN is selective repeat with a fixed one-BDP inflight cap, per
	// Mittal et al. (SIGCOMM 2018) as used in Figure 12.
	IRN
)

func (fc FlowControl) String() string {
	if fc == IRN {
		return "IRN"
	}
	return "GBN"
}

// Config sets host-wide transport behaviour.
type Config struct {
	// CC builds each new flow's congestion-control instance.
	CC cc.Factory
	// FlowCtl selects go-back-N or IRN recovery.
	FlowCtl FlowControl
	// MTU is the data payload size per packet; default 1000 (§5.1).
	MTU int
	// INT adds the 42-byte INT header to data packets and echoes INT
	// records in ACKs (required by HPCC; off for the baselines).
	INT bool
	// BaseRTT is the network-wide base RTT T handed to CC (§3.2).
	BaseRTT sim.Time
	// CNPInterval is the minimum gap between CNPs per flow at the
	// receiver (DCQCN's NP state machine); default 50 µs. Negative
	// disables CNP generation.
	CNPInterval sim.Time
	// RTO is the retransmission-timeout backstop for lossy modes;
	// default 1 ms.
	RTO sim.Time
	// SchedulerEngines models the NIC flow-scheduler clock engines of
	// §4.3: each engine sustains up to 50 concurrent flows at line
	// rate (the FPGA prototype has six). Flows beyond the capacity
	// wait FIFO until a slot frees. Zero means unlimited (ASIC-class).
	SchedulerEngines int
	// Seed feeds per-flow deterministic randomness.
	Seed int64
	// Pool recycles packet structs across the host's send and receive
	// paths. Topology builders share one pool per network; nil gets a
	// private pool.
	Pool *packet.Pool
}

// FlowsPerEngine is the per-clock-engine concurrent-flow capacity of
// the FPGA prototype (§4.3).
const FlowsPerEngine = 50

func (c *Config) normalize() {
	if c.MTU == 0 {
		c.MTU = packet.DefaultMTU
	}
	if c.CNPInterval == 0 {
		c.CNPInterval = 50 * sim.Microsecond
	}
	if c.RTO == 0 {
		c.RTO = sim.Millisecond
	}
	if c.BaseRTT == 0 {
		c.BaseRTT = 10 * sim.Microsecond
	}
}

// Host is a server endpoint with one or more NIC ports. It holds only
// its live sender flows: a flow leaves the flow map at teardown, so
// per-host memory is O(concurrent flows) however long the run.
type Host struct {
	id    fabric.NodeID   //hpcclint:nosnap immutable identity
	eng   *sim.Engine     //hpcclint:nosnap immutable wiring
	now   func() sim.Time //hpcclint:nosnap eng.Now bound once for every flow's cc.Env; rebound only with eng
	cfg   Config          //hpcclint:nosnap immutable config
	pool  *packet.Pool    //hpcclint:nosnap shared pool checkpointed as its own component
	ports []*fabric.Port  //hpcclint:nosnap immutable wiring; each port checkpoints itself
	flows map[int32]*Flow //hpcclint:nosnap the live set keyed by ID; Rollback rebuilds it from the checkpointed liveList
	recv  map[int32]*recvState

	// Accounting for the sender flows already torn down (completed or
	// aborted) and released from the flow map.
	endedFlows int
	endedPkts  uint64

	// pktSeq numbers the packets this host emits (see nextPktID).
	pktSeq uint64

	// RDMA READ requester state: flow ID -> (expected bytes, callback).
	reads map[int32]*pendingRead

	// Flow-scheduler engine limit (§4.3): active sender flows beyond
	// the clock-engine capacity wait here in FIFO order.
	activeFlows int
	waiting     []*Flow

	// wrapFree recycles the cc.Env.Schedule trampolines so timer-driven
	// CC schemes (DCQCN's per-flow clocks) do not allocate per tick.
	wrapFree []*schedWrap

	// doneRing remembers the most recently completed inbound flows so a
	// straggler duplicate (e.g. an RTO retransmission that was still in
	// flight when the original copy finished the flow) is dropped
	// instead of recreating — and then leaking — a recvState. Flow IDs
	// are never reused network-wide, so a hit always means straggler.
	doneRing [doneRingSize]int32
	doneHead int

	// Speculative-execution support (see checkpoint.go). liveList
	// holds the flow map's members in a deterministic order, so a
	// checkpoint walks them without ranging over the map; liveWraps
	// tracks in-flight CC trampolines so their (flow, callback) pairs
	// can be restored.
	liveList  []*Flow
	liveWraps []*schedWrap
	snap      *hostSnap
}

// doneRingSize bounds the completed-inbound-flow memory (power of two).
const doneRingSize = 64

func (h *Host) noteRecvDone(flowID int32) {
	h.doneRing[h.doneHead&(doneRingSize-1)] = flowID
	h.doneHead++
}

// recentlyRecvDone reports whether flowID completed within the last
// doneRingSize inbound completions. Only consulted on the per-flow slow
// path (no receiver state yet). Flow ID 0 is indistinguishable from an
// empty slot and is never treated as recently done.
func (h *Host) recentlyRecvDone(flowID int32) bool {
	if flowID == 0 {
		return false
	}
	for _, id := range h.doneRing {
		if id == flowID {
			return true
		}
	}
	return false
}

// schedWrap adapts one cc.Env.Schedule call onto the engine: it guards
// the callback behind the flow's liveness and follows it with trySend,
// like the old per-call closure did, but the wrap (and its bound run
// closure) returns to the host's free list on firing.
type schedWrap struct {
	f   *Flow
	fn  func()
	run func()
	idx int // position in the host's liveWraps list; -1 when free
}

func (h *Host) scheduleCC(f *Flow, d sim.Time, fn func()) {
	var w *schedWrap
	if n := len(h.wrapFree); n > 0 {
		w = h.wrapFree[n-1]
		h.wrapFree = h.wrapFree[:n-1]
	} else {
		w = &schedWrap{}
		w.run = func() {
			f, fn := w.f, w.fn
			w.f, w.fn = nil, nil
			h.unlinkWrap(w)
			h.wrapFree = append(h.wrapFree, w)
			if f.alive {
				fn()
				f.trySend()
			}
		}
	}
	w.f, w.fn = f, fn
	w.idx = len(h.liveWraps)
	h.liveWraps = append(h.liveWraps, w)
	h.eng.After(d, w.run)
}

// unlinkWrap removes a firing trampoline from the live list (swap
// delete; order is irrelevant, only membership matters for snapshots).
func (h *Host) unlinkWrap(w *schedWrap) {
	last := len(h.liveWraps) - 1
	lw := h.liveWraps[last]
	h.liveWraps[w.idx] = lw
	lw.idx = w.idx
	h.liveWraps[last] = nil
	h.liveWraps = h.liveWraps[:last]
	w.idx = -1
}

// release drops a torn-down flow from the live set: its packet count
// moves into the host totals, and it leaves the flow map and liveList
// (swap delete; liveList order only has to be deterministic).
func (h *Host) release(f *Flow) {
	h.endedFlows++
	h.endedPkts += f.pktsSent
	delete(h.flows, f.ID)
	last := len(h.liveList) - 1
	lf := h.liveList[last]
	h.liveList[f.liveIdx] = lf
	lf.liveIdx = f.liveIdx
	h.liveList[last] = nil
	h.liveList = h.liveList[:last]
	f.liveIdx = -1
}

type pendingRead struct {
	size   int64
	onDone func()
}

// New creates a host. Ports are attached afterwards (via topology
// builders) with AttachPort.
func New(eng *sim.Engine, id fabric.NodeID, cfg Config) *Host {
	cfg.normalize()
	pool := cfg.Pool
	if pool == nil {
		pool = packet.NewPool()
	}
	return &Host{
		id:    id,
		eng:   eng,
		now:   eng.Now,
		cfg:   cfg,
		pool:  pool,
		flows: make(map[int32]*Flow),
		recv:  make(map[int32]*recvState),
		reads: make(map[int32]*pendingRead),
	}
}

// ID implements fabric.Node.
func (h *Host) ID() fabric.NodeID { return h.id }

// Rebind moves the host's event scheduling onto another engine and
// gives it a shard-local packet pool. Part of partitioning a built
// network across shard engines; must happen before any flow starts
// (flows capture h.eng through their timers and CC environment).
func (h *Host) Rebind(eng *sim.Engine, pool *packet.Pool) {
	if len(h.flows) > 0 || h.endedFlows > 0 {
		panic("host: Rebind with flows started")
	}
	h.eng = eng
	h.now = eng.Now
	if pool != nil {
		h.pool = pool
	}
}

// Config returns the host configuration.
func (h *Host) Config() Config { return h.cfg }

// AttachPort registers a NIC port created by fabric.Connect; its index
// must match the attachment order.
func (h *Host) AttachPort(p *fabric.Port) {
	if p.Index() != len(h.ports) {
		panic("host: port attached out of order")
	}
	h.ports = append(h.ports, p)
}

// Ports returns the host's NIC ports.
func (h *Host) Ports() []*fabric.Port { return h.ports }

// OnDequeue implements fabric.Node; hosts need no dequeue-time hooks.
func (h *Host) OnDequeue(p *packet.Packet, ingress int, from *fabric.Port) {}

// HandleArrival implements fabric.Node: dispatch by frame type. Every
// branch but Data terminally consumes the frame here, so it returns to
// the pool; a data packet is either recycled in place as its own ACK or
// released inside handleData.
func (h *Host) HandleArrival(p *packet.Packet, in *fabric.Port) {
	switch p.Type {
	case packet.PFC:
		in.SetPaused(p.PFCPrio, p.PFCPause)
		h.pool.Put(p)
	case packet.Data:
		h.handleData(p, in)
	case packet.Ack:
		if f := h.flows[p.FlowID]; f != nil {
			f.handleAck(p)
		}
		h.pool.Put(p)
	case packet.Nack:
		if f := h.flows[p.FlowID]; f != nil {
			f.handleNack(p)
		}
		h.pool.Put(p)
	case packet.CNP:
		if f := h.flows[p.FlowID]; f != nil && !f.done {
			f.alg.OnCNP(h.eng.Now())
			f.trySend()
		}
		h.pool.Put(p)
	case packet.ReadReq:
		// RDMA READ responder: stream the requested bytes back as a
		// plain data flow owned by this host. READ flow IDs are
		// negative, so the multi-homing hash must use the magnitude —
		// a negative remainder would index out of range.
		port := int(p.FlowID) % len(h.ports)
		if port < 0 {
			port = -port
		}
		h.StartFlow(p.FlowID, fabric.NodeID(p.Src), p.Seq, port, nil)
		h.pool.Put(p)
	default:
		panic(fmt.Sprintf("host: unknown packet type %v", p.Type))
	}
}

// StartFlow creates and starts a sender flow of size bytes toward dst,
// bound to the local port portIdx. id must be unique network-wide.
// onDone, if non-nil, fires at completion (all bytes cumulatively
// ACKed). If the flow-scheduler engines are saturated, the flow queues
// until a slot frees (§4.3).
func (h *Host) StartFlow(id int32, dst fabric.NodeID, size int64, portIdx int, onDone func(*Flow)) *Flow {
	if _, dup := h.flows[id]; dup {
		panic(fmt.Sprintf("host: duplicate flow id %d", id))
	}
	port := h.ports[portIdx]
	f := &Flow{
		ID:      id,
		host:    h,
		dst:     dst,
		size:    size,
		port:    port,
		started: h.eng.Now(),
		onDone:  onDone,
		alive:   true,
	}
	if h.cfg.FlowCtl == IRN {
		f.sacked = make(map[int64]int32)
		f.rtx = make(map[int64]int32)
		env := cc.Env{LineRate: port.Rate(), BaseRTT: h.cfg.BaseRTT}
		f.irnCap = env.BDP()
	}
	f.liveIdx = len(h.liveList)
	h.liveList = append(h.liveList, f)
	f.initTimers()
	f.alg = h.cfg.CC()
	f.alg.Init(cc.Env{
		Now:      h.now,
		Schedule: func(d sim.Time, fn func()) { h.scheduleCC(f, d, fn) },
		LineRate: port.Rate(),
		BaseRTT:  h.cfg.BaseRTT,
		MTU:      h.cfg.MTU,
		Seed:     h.cfg.Seed ^ int64(id),
	})
	h.flows[id] = f
	if size <= 0 {
		// Degenerate zero-byte transfer: complete immediately (after
		// the current event, so the caller sees the handle first).
		h.eng.After(0, func() { f.complete(h.eng.Now()) }) //hpcclint:allow eventkey -- zero-byte completion fires on the flow's own host engine; a host lives on exactly one shard, so the tie class is host-local and cannot differ between 1 and N shards
		return f
	}
	if cap := h.schedCapacity(); cap > 0 && h.activeFlows >= cap {
		f.pending = true
		h.waiting = append(h.waiting, f)
		return f
	}
	h.admit(f)
	return f
}

// admit grants f a scheduler slot and starts transmission.
func (h *Host) admit(f *Flow) {
	h.activeFlows++
	f.admitted = true
	f.armRTO()
	f.trySend()
}

func (h *Host) schedCapacity() int {
	if h.cfg.SchedulerEngines <= 0 {
		return 0
	}
	return h.cfg.SchedulerEngines * FlowsPerEngine
}

// flowFinished releases the flow's scheduler slot and admits the next
// waiting flow, if any.
func (h *Host) flowFinished() {
	if h.schedCapacity() == 0 {
		return
	}
	h.activeFlows--
	for len(h.waiting) > 0 && h.activeFlows < h.schedCapacity() {
		next := h.waiting[0]
		h.waiting[0] = nil // the consumed prefix must not pin finished flows
		h.waiting = h.waiting[1:]
		if next.done {
			continue // aborted while waiting
		}
		next.pending = false
		next.started = h.eng.Now() // queueing delay excluded from FCT
		h.admit(next)
	}
}

// Read issues an RDMA READ: the responder streams size bytes back to
// this host as flow id. onDone fires here (at the requester) once all
// bytes have arrived in order. The request rides the control class.
func (h *Host) Read(id int32, responder fabric.NodeID, size int64, portIdx int, onDone func()) {
	h.reads[id] = &pendingRead{size: size, onDone: onDone}
	req := h.pool.Get()
	req.ID = h.nextPktID()
	req.Type = packet.ReadReq
	req.FlowID = id
	req.Src = int32(h.id)
	req.Dst = int32(responder)
	req.Prio = fabric.PrioCtrl
	req.Size = packet.CtrlBytes
	req.Seq = size
	h.ports[portIdx].Enqueue(req, -1)
}

// Flows returns the host's live sender flows: started and not yet
// completed or aborted. A flow leaves the map at teardown; EndedFlows
// accounts for it from then on.
func (h *Host) Flows() map[int32]*Flow { return h.flows }

// EndedFlows returns how many sender flows this host has torn down
// (completed or aborted) and their total data packets sent,
// retransmissions included. With the live flows in Flows, it gives
// exact whole-run accounting.
func (h *Host) EndedFlows() (flows int, pkts uint64) { return h.endedFlows, h.endedPkts }

// nextPktID returns a fresh packet ID for tracing: the host ID in the
// high 24 bits and the host's own packet sequence below, so IDs are
// unique network-wide and identical across shard counts and campaign
// workers.
func (h *Host) nextPktID() uint64 {
	h.pktSeq++
	return uint64(uint32(h.id))<<40 | h.pktSeq
}
