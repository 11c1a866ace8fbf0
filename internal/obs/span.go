package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"

	"netcrafter/internal/sim"
)

// Stage identifies one segment of a packet's lifecycle. A span is
// always "in" exactly one stage; transitions close the current stage
// and open the next, so per-stage durations tile the packet's lifetime
// exactly — their sum equals the end-to-end latency.
type Stage uint8

// Lifecycle stages, in the order a typical inter-cluster request
// crosses them.
const (
	// StageInject covers packet creation (coalescer output, RDMA
	// packetization) until the first flit leaves the RDMA send queue.
	StageInject Stage = iota
	// StageSrcNet is the intra-cluster network on the sending side
	// (links and the cluster switch pipeline).
	StageSrcNet
	// StageCtlQueue is time spent in a NetCrafter controller's
	// partitioned cluster queue.
	StageCtlQueue
	// StagePool is time parked in the stitch engine's pooling buffer
	// waiting for a stitch candidate.
	StagePool
	// StageWire is the inter-GPU-cluster link, from controller ejection
	// to arrival at the peer controller.
	StageWire
	// StageDstNet is the intra-cluster network on the receiving side,
	// after un-stitching.
	StageDstNet
	// StageReassemble is the RDMA reassembly wait, from the first flit
	// arriving at the destination engine until the packet completes.
	StageReassemble
	// StageMem is home-memory service (L2 lookup, MSHR wait, DRAM) for
	// request packets, from reassembly until the response is created.
	StageMem
	// NumStages is the number of lifecycle stages.
	NumStages
)

var stageNames = [NumStages]string{
	"inject", "src_net", "ctl_queue", "pool", "wire", "dst_net", "reassemble", "mem",
}

// String returns the short stage name used in span records and tables.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Span accumulates the per-stage latency breakdown of one packet. It
// is created by a SpanRecorder at packet creation, carried on the
// packet through segmentation, stitching and un-stitching (every flit
// and stitch item references the same packet), stamped by components
// as the packet crosses stage boundaries, and finalized on delivery.
//
// A nil *Span is valid, records nothing, and allocates nothing — the
// disabled-recorder hot path. Spans are not internally locked: the
// simulator stamps them from the single engine goroutine.
type Span struct {
	rec *SpanRecorder

	PacketID uint64
	TraceID  uint64
	Type     string
	Src, Dst int

	start  sim.Cycle
	cur    Stage
	curAt  sim.Cycle
	stages [NumStages]sim.Cycle
	ended  bool
}

// To closes the current stage at cycle now and enters stage st.
// Transitions never move time backwards: a stamp earlier than the last
// one switches the stage without accumulating, keeping the tiling
// invariant (sum of stages == end - start) intact.
func (s *Span) To(st Stage, now sim.Cycle) {
	if s == nil || s.ended {
		return
	}
	if now > s.curAt {
		s.stages[s.cur] += now - s.curAt
		s.curAt = now
	}
	s.cur = st
}

// End closes the current stage and finalizes the span, handing it to
// the recorder. Further stamps are ignored.
func (s *Span) End(now sim.Cycle) {
	if s == nil || s.ended {
		return
	}
	if now > s.curAt {
		s.stages[s.cur] += now - s.curAt
		s.curAt = now
	}
	s.ended = true
	s.rec.finish(s)
}

// Stage returns the accumulated cycles of one stage.
func (s *Span) Stage(st Stage) sim.Cycle {
	if s == nil {
		return 0
	}
	return s.stages[st]
}

// Total returns the cycles covered so far (end-to-end latency once the
// span has ended).
func (s *Span) Total() sim.Cycle {
	if s == nil {
		return 0
	}
	return s.curAt - s.start
}

// SpanRecord is the JSONL export schema of a finished span. Stages maps
// stage name to cycles; only non-zero stages are emitted.
type SpanRecord struct {
	Kind   string           `json:"kind"` // always "span"
	Pkt    uint64           `json:"pkt"`
	Trace  uint64           `json:"trace"`
	Type   string           `json:"type"`
	Src    int              `json:"src"`
	Dst    int              `json:"dst"`
	Start  int64            `json:"start"`
	End    int64            `json:"end"`
	Stages map[string]int64 `json:"stages"`
}

// Total returns the record's end-to-end latency in cycles.
func (r *SpanRecord) Total() int64 { return r.End - r.Start }

// StageSum returns the sum of all per-stage cycles.
func (r *SpanRecord) StageSum() int64 {
	var t int64
	for _, v := range r.Stages {
		t += v
	}
	return t
}

// SpanRecorder creates spans, aggregates finished ones into a latency
// Breakdown, and optionally streams each as a JSON line. A nil
// *SpanRecorder is valid: Start returns a nil *Span and every stamp on
// it is free — the disabled path.
type SpanRecorder struct {
	mu    sync.Mutex
	w     *bufio.Writer
	enc   *json.Encoder
	agg   *Breakdown
	count int64
}

// NewSpanRecorder returns a recorder aggregating into a Breakdown and,
// when w is non-nil, streaming one JSON line per finished span.
func NewSpanRecorder(w io.Writer) *SpanRecorder {
	r := &SpanRecorder{agg: NewBreakdown()}
	if w != nil {
		r.w = bufio.NewWriter(w)
		r.enc = json.NewEncoder(r.w)
	}
	return r
}

// Start opens a span for a packet created at cycle now, beginning in
// StageInject. Returns nil on a nil recorder.
func (r *SpanRecorder) Start(pktID, traceID uint64, typ string, src, dst int, now sim.Cycle) *Span {
	if r == nil {
		return nil
	}
	return &Span{
		rec:      r,
		PacketID: pktID,
		TraceID:  traceID,
		Type:     typ,
		Src:      src,
		Dst:      dst,
		start:    now,
		cur:      StageInject,
		curAt:    now,
	}
}

func (r *SpanRecorder) finish(s *Span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.count++
	r.agg.add(s)
	if r.enc != nil {
		_ = r.enc.Encode(s.record())
	}
}

// record converts a finished span to its export form.
func (s *Span) record() SpanRecord {
	stages := make(map[string]int64, NumStages)
	for i := Stage(0); i < NumStages; i++ {
		if s.stages[i] != 0 {
			stages[i.String()] = int64(s.stages[i])
		}
	}
	return SpanRecord{
		Kind:   "span",
		Pkt:    s.PacketID,
		Trace:  s.TraceID,
		Type:   s.Type,
		Src:    s.Src,
		Dst:    s.Dst,
		Start:  int64(s.start),
		End:    int64(s.curAt),
		Stages: stages,
	}
}

// Spans returns how many spans have finished.
func (r *SpanRecorder) Spans() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.count
}

// Breakdown returns a copy of the per-stage latency aggregation over
// all finished spans.
func (r *SpanRecorder) Breakdown() *Breakdown {
	if r == nil {
		return NewBreakdown()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.agg.clone()
}

// Flush drains the buffered JSONL output; call before reading the
// destination.
func (r *SpanRecorder) Flush() error {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.w == nil {
		return nil
	}
	return r.w.Flush()
}
