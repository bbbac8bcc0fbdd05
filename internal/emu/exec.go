package emu

import (
	"fmt"
	"math"
	"math/bits"

	"critload/internal/isa"
)

// Execute runs the warp's next instruction against env, updating register
// state, memory, and the SIMT stack, and fills step with the execution
// record. Calling Execute on a finished warp is a programming error and
// returns an error.
//
// Execution is warp-wide: the instruction is decoded once, each source
// operand is resolved once to a lane vector, and the operation runs as one
// loop over the lanes (see docs/PERFORMANCE.md, "Warp-wide functional
// emulation").
func (w *Warp) Execute(env *Env, step *Step) error {
	if len(w.stack) == 0 {
		return fmt.Errorf("emu: execute on finished warp")
	}
	top := &w.stack[len(w.stack)-1]
	pc := top.pc
	in := w.kernel.Insts[pc]
	active := top.mask

	exec := active
	if in.Guard.Active() {
		bits := w.preds[in.Guard.Reg]
		if in.Guard.Negate {
			bits = ^bits
		}
		exec &= bits
	}

	*step = Step{Inst: in, Active: active, Exec: exec}
	w.InstructionsExecuted++

	var err error
	switch in.Op {
	case isa.OpBra:
		w.execBranch(in, pc, active, exec)
		w.normalize()
		return nil
	case isa.OpExit, isa.OpRet:
		w.execExit(exec) // removes exec lanes from every stack entry
		// Guard-false lanes, if any, continue at the next instruction.
		if t := lastEntry(w.stack); t != nil && t.pc == pc && t.mask != 0 {
			t.pc++
		}
		w.normalize()
		step.Exited = w.Done()
		return nil
	case isa.OpBar:
		w.AtBarrier = true
		step.Barrier = true
	case isa.OpLd:
		err = w.execLoad(env, in, exec, step)
	case isa.OpSt:
		err = w.execStore(env, in, exec, step)
	case isa.OpAtom:
		err = w.execAtomic(env, in, exec, step)
	case isa.OpSetp:
		w.execSetp(env, in, exec)
	case isa.OpNop:
		// No destination, no effect.
	default:
		w.execArith(env, in, exec)
	}
	if err != nil {
		return fmt.Errorf("emu: %s (PC 0x%x): %w", in, in.PC, err)
	}
	top.pc++
	w.normalize()
	return nil
}

func lastEntry(s []stackEntry) *stackEntry {
	if len(s) == 0 {
		return nil
	}
	return &s[len(s)-1]
}

func (w *Warp) execBranch(in *isa.Instruction, pc int, active, exec uint32) {
	taken := exec
	fall := active &^ taken
	top := &w.stack[len(w.stack)-1]
	switch {
	case taken == 0:
		top.pc = pc + 1
	case fall == 0:
		top.pc = in.Targ
	default:
		rpc := w.kernel.ReconvergencePC(pc)
		// Current entry becomes the reconvergence continuation with the
		// union mask; execute the two sides under fresh entries.
		top.pc = rpc
		w.stack = append(w.stack,
			stackEntry{pc: pc + 1, rpc: rpc, mask: fall},
			stackEntry{pc: in.Targ, rpc: rpc, mask: taken},
		)
	}
}

func (w *Warp) execExit(exec uint32) {
	for i := range w.stack {
		w.stack[i].mask &^= exec
	}
}

// src resolves source operand i of in to a lane vector. A register operand
// is its slice of the register file; %tid and %laneid are the warp's
// prebuilt vectors; anything else is materialized into scratch slot i, with
// immediates converted to bits once.
func (w *Warp) src(env *Env, in *isa.Instruction, i int) *vec {
	o := &in.Srcs[i]
	switch o.Kind {
	case isa.OpdReg:
		return w.reg(o.Reg)
	case isa.OpdImm:
		return w.broadcast(i, uint32(int32(o.Imm)))
	case isa.OpdFImm:
		return w.broadcast(i, math.Float32bits(float32(o.FImm)))
	case isa.OpdSReg:
		switch o.SReg {
		case isa.SrTidX, isa.SrTidY, isa.SrTidZ:
			return &w.tid[o.SReg-isa.SrTidX]
		case isa.SrLaneId:
			return &laneIDs
		}
		return w.broadcast(i, w.uniformSReg(env.Launch, o.SReg))
	case isa.OpdPred:
		p, v := w.preds[o.Reg], &w.opnd[i]
		for l := range v {
			v[l] = p >> l & 1
		}
		return v
	}
	return w.broadcast(i, 0)
}

func (w *Warp) broadcast(i int, x uint32) *vec {
	v := &w.opnd[i]
	for l := range v {
		v[l] = x
	}
	return v
}

// merge copies the exec lanes of t into d.
func merge(d, t *vec, exec uint32) {
	for m := exec; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		d[l] = t[l]
	}
}

// execArith runs a value-producing ALU or SFU instruction. Under a full
// mask the results are written straight into the destination register;
// otherwise all lanes are computed into scratch and only the exec lanes are
// merged back. Every operation reads only its own lane of each source and
// writes that lane last, so a destination that is also a source is safe,
// and computing lanes that do not execute has no effect.
func (w *Warp) execArith(env *Env, in *isa.Instruction, exec uint32) {
	if exec == 0 {
		return
	}
	d := w.reg(in.Dst.Reg)
	if exec == FullMask {
		w.arith(env, in, d)
		return
	}
	w.arith(env, in, &w.tmp)
	merge(d, &w.tmp, exec)
}

// arith computes the instruction's result for every lane into out.
func (w *Warp) arith(env *Env, in *isa.Instruction, out *vec) {
	a := w.src(env, in, 0)
	float, signed := in.Type.Float(), in.Type.Signed()
	switch in.Op {
	case isa.OpMov:
		*out = *a
	case isa.OpAdd:
		b := w.src(env, in, 1)
		if float {
			for l := range out {
				out[l] = fbits(ffrom(a[l]) + ffrom(b[l]))
			}
			return
		}
		for l := range out {
			out[l] = a[l] + b[l]
		}
	case isa.OpSub:
		b := w.src(env, in, 1)
		if float {
			for l := range out {
				out[l] = fbits(ffrom(a[l]) - ffrom(b[l]))
			}
			return
		}
		for l := range out {
			out[l] = a[l] - b[l]
		}
	case isa.OpMul:
		b := w.src(env, in, 1)
		if float {
			for l := range out {
				out[l] = fbits(ffrom(a[l]) * ffrom(b[l]))
			}
			return
		}
		for l := range out {
			out[l] = a[l] * b[l]
		}
	case isa.OpMulHi:
		b := w.src(env, in, 1)
		if signed {
			for l := range out {
				out[l] = uint32(uint64(int64(int32(a[l]))*int64(int32(b[l]))) >> 32)
			}
			return
		}
		for l := range out {
			out[l] = uint32((uint64(a[l]) * uint64(b[l])) >> 32)
		}
	case isa.OpMad:
		b, c := w.src(env, in, 1), w.src(env, in, 2)
		if float {
			// The explicit float32 conversion rounds the product, so no
			// host may fuse this into an FMA.
			for l := range out {
				out[l] = fbits(float32(ffrom(a[l])*ffrom(b[l])) + ffrom(c[l]))
			}
			return
		}
		for l := range out {
			out[l] = a[l]*b[l] + c[l]
		}
	case isa.OpDiv:
		b := w.src(env, in, 1)
		switch {
		case float:
			for l := range out {
				out[l] = fbits(ffrom(a[l]) / ffrom(b[l]))
			}
		case signed:
			for l := range out {
				q := uint32(0)
				if b[l] != 0 {
					q = uint32(int32(a[l]) / int32(b[l]))
				}
				out[l] = q
			}
		default:
			for l := range out {
				q := uint32(0)
				if b[l] != 0 {
					q = a[l] / b[l]
				}
				out[l] = q
			}
		}
	case isa.OpRem:
		b := w.src(env, in, 1)
		if signed {
			for l := range out {
				r := uint32(0)
				if b[l] != 0 {
					r = uint32(int32(a[l]) % int32(b[l]))
				}
				out[l] = r
			}
			return
		}
		for l := range out {
			r := uint32(0)
			if b[l] != 0 {
				r = a[l] % b[l]
			}
			out[l] = r
		}
	case isa.OpMin, isa.OpMax:
		// min keeps a where a < b, max keeps a where b < a; ties and
		// unordered floats keep b.
		b := w.src(env, in, 1)
		x, y := a, b
		if in.Op == isa.OpMax {
			x, y = b, a
		}
		switch {
		case float:
			for l := range out {
				out[l] = sel(ffrom(x[l]) < ffrom(y[l]), a[l], b[l])
			}
		case signed:
			for l := range out {
				out[l] = sel(int32(x[l]) < int32(y[l]), a[l], b[l])
			}
		default:
			for l := range out {
				out[l] = sel(x[l] < y[l], a[l], b[l])
			}
		}
	case isa.OpAbs:
		if float {
			for l := range out {
				out[l] = fbits(float32(math.Abs(float64(ffrom(a[l])))))
			}
			return
		}
		for l := range out {
			out[l] = sel(int32(a[l]) < 0, -a[l], a[l])
		}
	case isa.OpNeg:
		if float {
			for l := range out {
				out[l] = fbits(-ffrom(a[l]))
			}
			return
		}
		for l := range out {
			out[l] = -a[l]
		}
	case isa.OpAnd:
		b := w.src(env, in, 1)
		for l := range out {
			out[l] = a[l] & b[l]
		}
	case isa.OpOr:
		b := w.src(env, in, 1)
		for l := range out {
			out[l] = a[l] | b[l]
		}
	case isa.OpXor:
		b := w.src(env, in, 1)
		for l := range out {
			out[l] = a[l] ^ b[l]
		}
	case isa.OpNot:
		for l := range out {
			out[l] = ^a[l]
		}
	case isa.OpShl:
		b := w.src(env, in, 1)
		for l := range out {
			out[l] = a[l] << (b[l] & 31)
		}
	case isa.OpShr:
		b := w.src(env, in, 1)
		if signed {
			for l := range out {
				out[l] = uint32(int32(a[l]) >> (b[l] & 31))
			}
			return
		}
		for l := range out {
			out[l] = a[l] >> (b[l] & 31)
		}
	case isa.OpSelp:
		// A third operand that is not a predicate selects b everywhere.
		b := w.src(env, in, 1)
		var p uint32
		if o := &in.Srcs[2]; o.Kind == isa.OpdPred {
			p = w.preds[o.Reg]
		}
		for l := range out {
			out[l] = sel(p>>l&1 != 0, a[l], b[l])
		}
	case isa.OpCvt:
		for l := range out {
			out[l] = convert(in.Type, in.SrcType, a[l])
		}
	case isa.OpSqrt:
		for l := range out {
			out[l] = fbits(float32(math.Sqrt(float64(ffrom(a[l])))))
		}
	case isa.OpRsqrt:
		for l := range out {
			out[l] = fbits(float32(1 / math.Sqrt(float64(ffrom(a[l])))))
		}
	case isa.OpRcp:
		for l := range out {
			out[l] = fbits(1 / ffrom(a[l]))
		}
	case isa.OpSin:
		for l := range out {
			out[l] = fbits(float32(math.Sin(float64(ffrom(a[l])))))
		}
	case isa.OpCos:
		for l := range out {
			out[l] = fbits(float32(math.Cos(float64(ffrom(a[l])))))
		}
	case isa.OpEx2:
		for l := range out {
			out[l] = fbits(float32(math.Exp2(float64(ffrom(a[l])))))
		}
	case isa.OpLg2:
		for l := range out {
			out[l] = fbits(float32(math.Log2(float64(ffrom(a[l])))))
		}
	default:
		*out = vec{}
	}
}

// execSetp evaluates the comparison as two lane bitmasks, less-than and
// equal, and derives the predicate from them; unordered floats compare
// neither less nor equal.
func (w *Warp) execSetp(env *Env, in *isa.Instruction, exec uint32) {
	a, b := w.src(env, in, 0), w.src(env, in, 1)
	var lt, eq uint32
	switch {
	case in.Type.Float():
		for l := range a {
			x, y := ffrom(a[l]), ffrom(b[l])
			lt |= b2u(x < y) << l
			eq |= b2u(x == y) << l
		}
	case in.Type.Signed():
		for l := range a {
			lt |= b2u(int32(a[l]) < int32(b[l])) << l
			eq |= b2u(a[l] == b[l]) << l
		}
	default:
		for l := range a {
			lt |= b2u(a[l] < b[l]) << l
			eq |= b2u(a[l] == b[l]) << l
		}
	}
	var p uint32
	switch in.Cmp {
	case isa.CmpEQ:
		p = eq
	case isa.CmpNE:
		p = ^eq
	case isa.CmpLT:
		p = lt
	case isa.CmpLE:
		p = lt | eq
	case isa.CmpGT:
		p = ^(lt | eq)
	case isa.CmpGE:
		p = ^lt
	}
	d := &w.preds[in.Dst.Reg]
	*d = *d&^exec | p&exec
}

// effAddrs writes the effective address of memory operand o into out for
// every exec lane.
func (w *Warp) effAddrs(o *isa.Operand, exec uint32, out *vec) {
	off := uint32(o.Imm)
	if o.Reg < 0 {
		for m := exec; m != 0; m &= m - 1 {
			out[bits.TrailingZeros32(m)] = off
		}
		return
	}
	base := w.reg(o.Reg)
	if exec == FullMask {
		for l := range out {
			out[l] = base[l] + off
		}
		return
	}
	for m := exec; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		out[l] = base[l] + off
	}
}

func (w *Warp) execLoad(env *Env, in *isa.Instruction, exec uint32, step *Step) error {
	src := &in.Srcs[0]
	switch in.Space {
	case isa.SpaceParam:
		off, ok := w.kernel.ParamOffset(src.Param)
		if !ok {
			return fmt.Errorf("unknown param %q", src.Param)
		}
		byteOff := off + int(src.Imm)
		if byteOff%4 != 0 || byteOff/4 >= len(env.Launch.Params) {
			return fmt.Errorf("param access [%s+%d] out of range", src.Param, src.Imm)
		}
		v, d := env.Launch.Params[byteOff/4], w.reg(in.Dst.Reg)
		for m := exec; m != 0; m &= m - 1 {
			d[bits.TrailingZeros32(m)] = v
		}
		return nil
	case isa.SpaceGlobal, isa.SpaceConst, isa.SpaceTex:
		step.Mem = in.Space != isa.SpaceConst
		w.effAddrs(src, exec, &step.Addrs)
		d := w.reg(in.Dst.Reg)
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			d[l] = env.Mem.Read32(step.Addrs[l])
		}
		return nil
	case isa.SpaceShared:
		step.Mem = true
		w.effAddrs(src, exec, &step.Addrs)
		d := w.reg(in.Dst.Reg)
		for m := exec; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			v, err := w.sharedRead(step.Addrs[l])
			if err != nil {
				return err
			}
			d[l] = v
		}
		return nil
	default:
		return fmt.Errorf("unsupported load space %s", in.Space)
	}
}

// execStore writes lanes in ascending order, so when several lanes store
// to one address the highest lane's value wins.
func (w *Warp) execStore(env *Env, in *isa.Instruction, exec uint32, step *Step) error {
	if in.Space != isa.SpaceGlobal && in.Space != isa.SpaceShared {
		return fmt.Errorf("unsupported store space %s", in.Space)
	}
	step.Mem = true
	w.effAddrs(&in.Srcs[0], exec, &step.Addrs)
	v := w.src(env, in, 1)
	for m := exec; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		if in.Space == isa.SpaceGlobal {
			env.Mem.Write32(step.Addrs[l], v[l])
		} else if err := w.sharedWrite(step.Addrs[l], v[l]); err != nil {
			return err
		}
	}
	return nil
}

// execAtomic applies the lanes' read-modify-writes one lane at a time in
// ascending order, so lanes that hit one address see each other's updates.
func (w *Warp) execAtomic(env *Env, in *isa.Instruction, exec uint32, step *Step) error {
	if in.Space != isa.SpaceGlobal {
		return fmt.Errorf("atomics supported on global memory only")
	}
	step.Mem = true
	w.effAddrs(&in.Srcs[0], exec, &step.Addrs)
	b := w.src(env, in, 1)
	var c *vec
	if in.Atom == isa.AtomCAS {
		c = w.src(env, in, 2)
	}
	var d *vec
	if in.Dst.Kind == isa.OpdReg {
		d = w.reg(in.Dst.Reg)
	}
	for m := exec; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m)
		addr := step.Addrs[l]
		old := env.Mem.Read32(addr)
		var nv uint32
		switch in.Atom {
		case isa.AtomAdd:
			nv = old + b[l]
		case isa.AtomMin:
			nv = minByType(in.Type, old, b[l])
		case isa.AtomMax:
			nv = maxByType(in.Type, old, b[l])
		case isa.AtomExch:
			nv = b[l]
		case isa.AtomOr:
			nv = old | b[l]
		case isa.AtomAnd:
			nv = old & b[l]
		case isa.AtomCAS:
			nv = sel(old == b[l], c[l], old)
		default:
			return fmt.Errorf("unsupported atomic %s", in.Atom)
		}
		env.Mem.Write32(addr, nv)
		if d != nil {
			d[l] = old
		}
	}
	return nil
}

func (w *Warp) sharedRead(addr uint32) (uint32, error) {
	sh := w.CTA.Shared
	if int(addr)+4 > len(sh) {
		return 0, fmt.Errorf("shared read at %d beyond %d bytes", addr, len(sh))
	}
	return uint32(sh[addr]) | uint32(sh[addr+1])<<8 | uint32(sh[addr+2])<<16 | uint32(sh[addr+3])<<24, nil
}

func (w *Warp) sharedWrite(addr uint32, v uint32) error {
	sh := w.CTA.Shared
	if int(addr)+4 > len(sh) {
		return fmt.Errorf("shared write at %d beyond %d bytes", addr, len(sh))
	}
	sh[addr] = byte(v)
	sh[addr+1] = byte(v >> 8)
	sh[addr+2] = byte(v >> 16)
	sh[addr+3] = byte(v >> 24)
	return nil
}

func ffrom(bits uint32) float32 { return math.Float32frombits(bits) }
func fbits(f float32) uint32    { return math.Float32bits(f) }

// sel returns a when c holds and b otherwise.
func sel(c bool, a, b uint32) uint32 {
	if c {
		return a
	}
	return b
}

// b2u returns 1 for true and 0 for false.
func b2u(c bool) uint32 {
	if c {
		return 1
	}
	return 0
}

// convert implements cvt. Integer to float rounds to nearest. Float to
// integer has PTX cvt.rzi semantics on every host: it truncates toward
// zero, NaN converts to 0, and values outside the destination range
// saturate to its minimum or maximum.
func convert(dst, src isa.DType, v uint32) uint32 {
	switch {
	case dst == src:
		return v
	case dst.Float() && src == isa.S32:
		return fbits(float32(int32(v)))
	case dst.Float():
		return fbits(float32(v))
	case src.Float() && dst == isa.S32:
		f := float64(ffrom(v))
		switch {
		case f != f:
			return 0
		case f <= math.MinInt32:
			return 1 << 31
		case f >= math.MaxInt32:
			return math.MaxInt32
		}
		return uint32(int32(f))
	case src.Float():
		f := float64(ffrom(v))
		switch {
		case f != f || f <= 0:
			return 0
		case f >= math.MaxUint32:
			return math.MaxUint32
		}
		return uint32(f)
	default:
		return v
	}
}

func minByType(t isa.DType, a, b uint32) uint32 {
	switch {
	case t.Float():
		if ffrom(a) < ffrom(b) {
			return a
		}
		return b
	case t.Signed():
		if int32(a) < int32(b) {
			return a
		}
		return b
	default:
		if a < b {
			return a
		}
		return b
	}
}

func maxByType(t isa.DType, a, b uint32) uint32 {
	switch {
	case t.Float():
		if ffrom(a) > ffrom(b) {
			return a
		}
		return b
	case t.Signed():
		if int32(a) > int32(b) {
			return a
		}
		return b
	default:
		if a > b {
			return a
		}
		return b
	}
}
