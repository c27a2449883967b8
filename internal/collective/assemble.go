package collective

import (
	"fmt"

	"ccube/internal/chunk"
	"ccube/internal/topology"
)

// This file is the assembly boundary for externally compiled schedules:
// internal/synth lowers its IR to OpSpecs and Assemble materializes them as
// a Schedule, the same type the hand-written builders produce, so
// synthesized collectives flow through schedcheck, the cache/store, and the
// DES engine unchanged.
//
// Assemble performs no verification beyond index sanity. It returns an
// *Unverified schedule, whose Verify runs the full static verifier before
// anything can execute it.

// OpSpec describes one operation of an externally assembled schedule, in
// the same vocabulary as the internal transfer DAG.
type OpSpec struct {
	// Label names the op for verifier diagnostics and traces.
	Label string
	// Channel is the physical channel the op occupies; < 0 makes the op a
	// zero-cost marker (a dependency join).
	Channel topology.ChannelID
	// Chunk is the pipeline chunk the op moves.
	Chunk int
	// Bytes is the payload size (ignored for markers).
	Bytes int64
	// SrcNode is the source node buffer; set FromRelay instead when the op
	// forwards from an earlier op's relay slot (SrcNode is then ignored and
	// SrcRelay names the producing op).
	SrcNode   topology.NodeID
	FromRelay bool
	SrcRelay  int
	// DstNode is the destination node buffer. DstRelaySelf instead parks
	// the payload in this op's own relay slot (an intermediate detour hop).
	DstNode      topology.NodeID
	DstRelaySelf bool
	// Accumulate reduces into the destination buffer instead of overwriting.
	Accumulate bool
	// NoAlpha drops the per-transfer latency term (pipelined follower hops).
	NoAlpha bool
	// HasFinal records that completion of this op makes Chunk fully reduced
	// and available at node Final.
	HasFinal bool
	Final    topology.NodeID
	// Deps are indices (into the op list) that must complete first.
	Deps []int
}

// AssembleSpec is a complete externally compiled schedule.
type AssembleSpec struct {
	Graph     *topology.Graph
	Nodes     []topology.NodeID
	Partition chunk.Partition
	InOrder   bool
	Streams   int
	Contract  Contract
	Ops       []OpSpec
}

// Assemble materializes an externally compiled schedule. It checks only
// index sanity (dep and relay references must point at earlier ops, chunks
// must exist in the partition); the result is unverified until its Verify
// succeeds.
func Assemble(spec AssembleSpec) (*Unverified, error) {
	if spec.Graph == nil {
		return nil, fmt.Errorf("collective: assemble: nil graph")
	}
	if len(spec.Nodes) < 2 {
		return nil, fmt.Errorf("collective: assemble: %d participants", len(spec.Nodes))
	}
	if spec.Partition.NumChunks() == 0 {
		return nil, fmt.Errorf("collective: assemble: empty partition")
	}
	s := newSchedule(spec.Graph, append([]topology.NodeID(nil), spec.Nodes...), spec.Partition)
	s.InOrder = spec.InOrder
	s.Streams = spec.Streams
	s.Contract = spec.Contract
	numChunks := spec.Partition.NumChunks()
	for i, op := range spec.Ops {
		if op.Chunk < 0 || op.Chunk >= numChunks {
			return nil, fmt.Errorf("collective: assemble: op %d (%s): chunk %d outside partition [0,%d)", i, op.Label, op.Chunk, numChunks)
		}
		for _, d := range op.Deps {
			if d < 0 || d >= i {
				return nil, fmt.Errorf("collective: assemble: op %d (%s): dep %d is not an earlier op", i, op.Label, d)
			}
		}
		if op.Channel < 0 {
			final := topology.NodeID(-1)
			if op.HasFinal {
				final = op.Final
			}
			id := s.addMarker(op.Label, op.Chunk, final, op.Deps...)
			if id != i {
				return nil, fmt.Errorf("collective: assemble: op id drift (%d != %d)", id, i)
			}
			continue
		}
		src := nodeBuf(op.SrcNode)
		if op.FromRelay {
			if op.SrcRelay < 0 || op.SrcRelay >= i {
				return nil, fmt.Errorf("collective: assemble: op %d (%s): relay source %d is not an earlier op", i, op.Label, op.SrcRelay)
			}
			src = relayBuf(op.SrcRelay)
		}
		dst := nodeBuf(op.DstNode)
		id := s.addTransfer(op.Label, op.Channel, op.Chunk, op.Bytes, src, dst, op.Accumulate, op.Deps...)
		if op.DstRelaySelf {
			s.transfers[id].dst = relayBuf(id)
		}
		s.transfers[id].noAlpha = op.NoAlpha
		if op.HasFinal {
			s.markFinal(id, op.Final)
		}
	}
	return &Unverified{s: s}, nil
}
