// Package core implements the paper's contribution: the NetCrafter
// controller that sits at each cluster's boundary to the lower-bandwidth
// inter-GPU-cluster network and reduces/manages the traffic crossing it
// with three mechanisms:
//
//   - Stitching (§4.2): merge the useful bytes of partly-filled flits
//     bound for the same destination cluster into fewer flits, helped by
//     Flit Pooling (delay ejection waiting for a candidate) and Selective
//     Flit Pooling (PTW flits never wait).
//   - Trimming (§4.3): cut read responses down to the one sector the
//     requesting wavefront needs, only when crossing clusters.
//   - Sequencing (§4.3): serve latency-critical PTW flits ahead of data.
package core

import "netcrafter/internal/sim"

// SequencingMode selects the flit prioritization policy.
type SequencingMode int

const (
	// SeqOff — plain round-robin over all cluster-queue partitions.
	SeqOff SequencingMode = iota
	// SeqPTW — the paper's Sequencing: PTW-related flits are served
	// first whenever present.
	SeqPTW
	// SeqDataEqual — the Fig-8 control experiment: an equal number of
	// data flits (one per PTW flit observed) is prioritized instead.
	SeqDataEqual
)

func (m SequencingMode) String() string {
	switch m {
	case SeqOff:
		return "off"
	case SeqPTW:
		return "ptw"
	case SeqDataEqual:
		return "data-equal"
	}
	return "unknown"
}

// StitchScope is an ablation knob: where the stitch engine may look for
// candidates.
type StitchScope int

const (
	// ScopeAllPartitions — search every partition bound for the same
	// destination cluster (the paper's design).
	ScopeAllPartitions StitchScope = iota
	// ScopeSamePartition — only later entries of the parent's own
	// partition are candidates.
	ScopeSamePartition
)

// stitchSearchWindow bounds how many entries per partition the stitch
// engine can examine in one attempt — a combinational search over the
// whole 1024-entry queue is not implementable, so candidates beyond the
// window are invisible until the queue drains (this is what makes Flit
// Pooling productive: a pooled flit re-attempts against later windows).
// The Fig-8 data-first control looks no deeper.
const stitchSearchWindow = 8

// Config controls one NetCrafter controller instance. It carries no
// flit size: the controller reads each flit's own.
type Config struct {
	// EnableStitch turns the stitch engine on.
	EnableStitch bool
	// EnableTrim turns the trim engine on.
	EnableTrim bool
	// TrimWrites extends trimming to write requests (the write-mask
	// idea the paper sketches for coherence traffic): a store that
	// dirtied at most one sector ships only that sector across
	// clusters. Off in the paper's main design.
	TrimWrites bool
	// Sequencing selects the priority policy.
	Sequencing SequencingMode
	// PoolingCycles is the Flit Pooling window; 0 disables pooling.
	PoolingCycles sim.Cycle
	// SelectivePooling exempts PTW flits from pooling delays.
	SelectivePooling bool
	// StitchScope is the candidate search breadth.
	StitchScope StitchScope
	// CQEntries is the total cluster-queue capacity in flits
	// (Table 2: 1024 entries of 16B, equally partitioned per
	// destination cluster).
	CQEntries int
	// EjectRate is how many flits the controller may hand to the
	// inter-cluster link per cycle (the link's flits/cycle).
	EjectRate int
}

// Baseline returns the controller configuration of the paper's final
// design: Stitching with 32-cycle Selective Flit Pooling, Trimming,
// and PTW Sequencing.
func Baseline() Config {
	return Config{
		EnableStitch:     true,
		EnableTrim:       true,
		Sequencing:       SeqPTW,
		PoolingCycles:    32,
		SelectivePooling: true,
		StitchScope:      ScopeAllPartitions,
		CQEntries:        1024,
		EjectRate:        1,
	}
}

// Passthrough returns a configuration with every mechanism disabled:
// the controller degenerates to a FIFO, which is the paper's baseline
// non-uniform configuration.
func Passthrough() Config {
	return Config{CQEntries: 1024, EjectRate: 1}
}

func (c Config) withDefaults() Config {
	if c.CQEntries == 0 {
		c.CQEntries = 1024
	}
	if c.EjectRate == 0 {
		c.EjectRate = 1
	}
	return c
}
