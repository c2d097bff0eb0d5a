package core

import (
	"encoding/binary"
	"math"
	"slices"

	"permcell/internal/dlb"
	"permcell/internal/particle"
	"permcell/internal/transport"
	"permcell/internal/vec"
)

// The PE protocol payloads travel as `any` through the comm substrate; on
// the TCP transport each one crosses as a KindData frame whose payload is a
// type byte plus that type's fixed little-endian layout (every int and
// int64 8 bytes, every float64 its IEEE-754 bits, every slice a uint32
// count and then the elements). This file is the registry: every type
// pe.send and the collectives pass has a codec here or in
// internal/transport, registration is unconditional (init) and costs
// nothing on in-process runs, and a type missing from the table is a send
// error on tcp, never a fallback.
//
// The full payload inventory of the per-step protocol:
//
//	id  type             carried by                        layout                               bytes
//	 1  float64          AllreduceFloat64                  bits                                 8
//	 2  int64            AllreduceInt64                    value                                8
//	 3  []int            verifyStep's Gather               n, n x int                           4 + 8n
//	 5  []any            Allgather's broadcast leg         n, n x (id + body), nested           4 + ...
//	16  []dlb.Decision   tagDecision                       n, n x {Col, Dest}                   4 + 16n
//	17  []particle.One   tagMigrate, gatherFinal           n, n x {ID, Pos, Vel}                4 + 56n
//	18  []cellBlock      tagHalo                           nb, np, nb x {Cell, n}, np x vec     8 + 12nb + 24np
//	19  colTransfer      tagTransfer                       nPs, nFrc, nPs x One, nFrc x vec     8 + 56nPs + 24nFrc
//	20  loadCensus       global-scope balancer Allgather   Load, Cols, Pop                      16 + 8(nc + np)
//	21  peRecord         collectStats' Gather              11 scalars, Phases (3 x 7)           256
//	22  forceReturn      tagForce                          Load, then as []cellBlock (forces)   16 + 12nb + 24np
//
// A vec is three float64 (24 bytes). Ids 1, 2, 3 and 5 are registered by
// internal/transport itself; 4 is retired.
const (
	idDecisions  byte = 16
	idOnes       byte = 17
	idCellBlocks byte = 18
	idColumn     byte = 19
	idCensus     byte = 20
	idPERecord   byte = 21
	idForces     byte = 22
)

const (
	vecLen      = 24
	oneLen      = 8 + 2*vecLen
	decisionLen = 16
	blockHdrLen = 8 + 4
)

func appendVec(b []byte, v vec.V) []byte {
	b = transport.AppendFloat64(b, v.X)
	b = transport.AppendFloat64(b, v.Y)
	return transport.AppendFloat64(b, v.Z)
}

// vecAt reads the vec at the head of w (len(w) >= vecLen).
func vecAt(w []byte) vec.V {
	_ = w[vecLen-1]
	return vec.V{
		X: math.Float64frombits(binary.LittleEndian.Uint64(w[0:])),
		Y: math.Float64frombits(binary.LittleEndian.Uint64(w[8:])),
		Z: math.Float64frombits(binary.LittleEndian.Uint64(w[16:])),
	}
}

func appendOnes(b []byte, ps []particle.One) []byte {
	b = slices.Grow(b, len(ps)*oneLen)
	for _, p := range ps {
		b = transport.AppendInt64(b, p.ID)
		b = appendVec(b, p.Pos)
		b = appendVec(b, p.Vel)
	}
	return b
}

// readOnes decodes n particles; n has been checked against the payload.
func readOnes(r *transport.Reader, n int) []particle.One {
	w := r.Bytes(n * oneLen)
	if len(w) == 0 {
		return nil
	}
	out := make([]particle.One, n)
	for i := range out {
		e := w[i*oneLen : (i+1)*oneLen]
		out[i] = particle.One{
			ID:  int64(binary.LittleEndian.Uint64(e)),
			Pos: vecAt(e[8:]),
			Vel: vecAt(e[8+vecLen:]),
		}
	}
	return out
}

// readVecs decodes n vecs; n has been checked against the payload.
func readVecs(r *transport.Reader, n int) []vec.V {
	w := r.Bytes(n * vecLen)
	if len(w) == 0 {
		return nil
	}
	out := make([]vec.V, n)
	for i := range out {
		out[i] = vecAt(w[i*vecLen:])
	}
	return out
}

func encodeCellBlocks(b []byte, blocks []cellBlock) []byte {
	np := 0
	for i := range blocks {
		np += len(blocks[i].Pos)
	}
	b = slices.Grow(b, 8+len(blocks)*blockHdrLen+np*vecLen)
	b = transport.AppendCount(b, len(blocks))
	b = transport.AppendCount(b, np)
	for i := range blocks {
		b = transport.AppendInt(b, blocks[i].Cell)
		b = transport.AppendCount(b, len(blocks[i].Pos))
	}
	for i := range blocks {
		for _, v := range blocks[i].Pos {
			b = appendVec(b, v)
		}
	}
	return b
}

// decodeCellBlocks lands every block's positions in one arena per message;
// each block's Pos is a capacity-clipped window of it.
func decodeCellBlocks(r *transport.Reader) []cellBlock {
	nb := r.Count(blockHdrLen)
	np := r.Count(vecLen)
	hdr := r.Bytes(nb * blockHdrLen)
	if len(hdr) == 0 {
		if np != 0 {
			r.Fail("cell blocks: positions without a block")
		}
		return nil
	}
	arena := readVecs(r, np)
	if r.Err() != nil {
		return nil
	}
	out := make([]cellBlock, nb)
	off := 0
	for i := range out {
		h := hdr[i*blockHdrLen:]
		n := int(binary.LittleEndian.Uint32(h[8:]))
		if n > np-off {
			r.Fail("cell blocks: block lengths exceed the position count")
			return nil
		}
		out[i].Cell = int(int64(binary.LittleEndian.Uint64(h)))
		if n > 0 {
			out[i].Pos = arena[off : off+n : off+n]
		}
		off += n
	}
	if off != np {
		r.Fail("cell blocks: block lengths fall short of the position count")
		return nil
	}
	return out
}

func encodeColumn(b []byte, c colTransfer) []byte {
	b = transport.AppendCount(b, len(c.Ps))
	b = transport.AppendCount(b, len(c.Frc))
	b = appendOnes(b, c.Ps)
	b = slices.Grow(b, len(c.Frc)*vecLen)
	for _, f := range c.Frc {
		b = appendVec(b, f)
	}
	return b
}

func decodeColumn(r *transport.Reader) colTransfer {
	nPs := r.Count(oneLen)
	nFrc := r.Count(vecLen)
	return colTransfer{Ps: readOnes(r, nPs), Frc: readVecs(r, nFrc)}
}

func encodePERecord(b []byte, p peRecord) []byte {
	b = transport.AppendFloat64(b, p.Work)
	b = transport.AppendFloat64(b, p.Wall)
	b = transport.AppendFloat64(b, p.Step)
	b = transport.AppendInt(b, p.Cells)
	b = transport.AppendInt(b, p.Empty)
	b = transport.AppendInt(b, p.Moved)
	b = transport.AppendInt64(b, p.MovedBytes)
	b = transport.AppendInt(b, p.Ghosts)
	b = transport.AppendFloat64(b, p.PotE)
	b = transport.AppendFloat64(b, p.KinE)
	b = transport.AppendInt(b, p.N)
	for _, v := range p.Phases.Secs {
		b = transport.AppendFloat64(b, v)
	}
	for _, v := range p.Phases.Msgs {
		b = transport.AppendInt64(b, v)
	}
	for _, v := range p.Phases.Bytes {
		b = transport.AppendInt64(b, v)
	}
	return b
}

func decodePERecord(r *transport.Reader) peRecord {
	p := peRecord{
		Work:       r.Float64(),
		Wall:       r.Float64(),
		Step:       r.Float64(),
		Cells:      r.Int(),
		Empty:      r.Int(),
		Moved:      r.Int(),
		MovedBytes: r.Int64(),
		Ghosts:     r.Int(),
		PotE:       r.Float64(),
		KinE:       r.Float64(),
		N:          r.Int(),
	}
	for i := range p.Phases.Secs {
		p.Phases.Secs[i] = r.Float64()
	}
	for i := range p.Phases.Msgs {
		p.Phases.Msgs[i] = r.Int64()
	}
	for i := range p.Phases.Bytes {
		p.Phases.Bytes[i] = r.Int64()
	}
	return p
}

func init() {
	transport.RegisterPayload(idDecisions,
		func(b []byte, ds []dlb.Decision) []byte {
			b = transport.AppendCount(b, len(ds))
			for _, d := range ds {
				b = transport.AppendInt(b, d.Col)
				b = transport.AppendInt(b, d.Dest)
			}
			return b
		},
		func(r *transport.Reader) []dlb.Decision {
			n := r.Count(decisionLen)
			if n == 0 {
				return nil
			}
			out := make([]dlb.Decision, n)
			for i := range out {
				out[i] = dlb.Decision{Col: r.Int(), Dest: r.Int()}
			}
			return out
		})
	transport.RegisterPayload(idOnes,
		func(b []byte, ps []particle.One) []byte {
			return appendOnes(transport.AppendCount(b, len(ps)), ps)
		},
		func(r *transport.Reader) []particle.One { return readOnes(r, r.Count(oneLen)) })
	transport.RegisterPayload(idCellBlocks, encodeCellBlocks, decodeCellBlocks)
	transport.RegisterPayload(idColumn, encodeColumn, decodeColumn)
	transport.RegisterPayload(idCensus,
		func(b []byte, c loadCensus) []byte {
			b = transport.AppendFloat64(b, c.Load)
			b = transport.AppendInts(b, c.Cols)
			return transport.AppendInts(b, c.Pop)
		},
		func(r *transport.Reader) loadCensus {
			return loadCensus{Load: r.Float64(), Cols: r.Ints(), Pop: r.Ints()}
		})
	transport.RegisterPayload(idPERecord, encodePERecord, decodePERecord)
	transport.RegisterPayload(idForces,
		func(b []byte, f forceReturn) []byte {
			return encodeCellBlocks(transport.AppendFloat64(b, f.Load), f.Cells)
		},
		func(r *transport.Reader) forceReturn {
			return forceReturn{Load: r.Float64(), Cells: decodeCellBlocks(r)}
		})
}
