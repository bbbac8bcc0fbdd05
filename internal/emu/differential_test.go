package emu

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"critload/internal/isa"
	"critload/internal/mem"
	"critload/internal/ptx"
)

// This file cross-checks the warp-level SIMT execution (reconvergence stack,
// predication, divergence) against an independent per-thread scalar
// interpreter on randomly generated kernels. For kernels without shared
// memory, barriers or cross-thread memory communication, executing each
// thread in isolation must produce exactly the same architectural results
// as the lock-step warp execution.

// scalarThread interprets a kernel for one thread, sequentially.
type scalarThread struct {
	k     *ptx.Kernel
	l     *Launch
	cta   Dim3
	ctaID int
	tid   Dim3
	lane  int
	warp  int
	regs  []uint32
	preds []bool
	out   map[uint32]uint32 // global stores
}

func (s *scalarThread) sreg(r isa.SpecialReg) uint32 {
	switch r {
	case isa.SrTidX:
		return uint32(s.tid.X)
	case isa.SrTidY:
		return uint32(s.tid.Y)
	case isa.SrTidZ:
		return uint32(s.tid.Z)
	case isa.SrNTidX:
		return uint32(s.l.Block.X)
	case isa.SrNTidY:
		return uint32(s.l.Block.Y)
	case isa.SrNTidZ:
		return uint32(s.l.Block.Z)
	case isa.SrCtaIdX:
		return uint32(s.cta.X)
	case isa.SrCtaIdY:
		return uint32(s.cta.Y)
	case isa.SrCtaIdZ:
		return uint32(s.cta.Z)
	case isa.SrNCtaIdX:
		return uint32(s.l.Grid.X)
	case isa.SrNCtaIdY:
		return uint32(s.l.Grid.Y)
	case isa.SrNCtaIdZ:
		return uint32(s.l.Grid.Z)
	case isa.SrLaneId:
		return uint32(s.lane)
	case isa.SrWarpId:
		return uint32(s.warp)
	}
	return 0
}

func (s *scalarThread) value(o isa.Operand) uint32 {
	switch o.Kind {
	case isa.OpdReg:
		return s.regs[o.Reg]
	case isa.OpdImm:
		return uint32(int32(o.Imm))
	case isa.OpdFImm:
		return math.Float32bits(float32(o.FImm))
	case isa.OpdSReg:
		return s.sreg(o.SReg)
	case isa.OpdPred:
		if s.preds[o.Reg] {
			return 1
		}
		return 0
	}
	return 0
}

// scalarCompare is the reference setp: integer comparisons by type, float
// comparisons with IEEE unordered semantics folded the way the ISA defines
// them (gt and ge are the negations of le and lt).
func scalarCompare(t isa.DType, c isa.CmpOp, a, b uint32) bool {
	var lt, eq bool
	switch t {
	case isa.F32:
		fa, fb := math.Float32frombits(a), math.Float32frombits(b)
		lt, eq = fa < fb, fa == fb
	case isa.S32:
		lt, eq = int32(a) < int32(b), a == b
	default:
		lt, eq = a < b, a == b
	}
	switch c {
	case isa.CmpEQ:
		return eq
	case isa.CmpNE:
		return !eq
	case isa.CmpLT:
		return lt
	case isa.CmpLE:
		return lt || eq
	case isa.CmpGT:
		return !lt && !eq
	case isa.CmpGE:
		return !lt
	}
	return false
}

// scalarALU is the reference for every value-producing ALU and SFU
// instruction the generator emits, written per thread and independently of
// the warp emulator.
func scalarALU(in *isa.Instruction, a, b, c uint32) uint32 {
	f := math.Float32frombits
	fb := math.Float32bits
	float := in.Type == isa.F32
	signed := in.Type == isa.S32
	switch in.Op {
	case isa.OpMov:
		return a
	case isa.OpAdd:
		if float {
			return fb(f(a) + f(b))
		}
		return a + b
	case isa.OpSub:
		if float {
			return fb(f(a) - f(b))
		}
		return a - b
	case isa.OpMul:
		if float {
			return fb(f(a) * f(b))
		}
		return a * b
	case isa.OpMulHi:
		if signed {
			return uint32((int64(int32(a)) * int64(int32(b))) >> 32)
		}
		return uint32((uint64(a) * uint64(b)) >> 32)
	case isa.OpMad:
		if float {
			return fb(float32(f(a)*f(b)) + f(c))
		}
		return a*b + c
	case isa.OpDiv, isa.OpRem:
		if b == 0 {
			return 0
		}
		switch {
		case signed && in.Op == isa.OpDiv:
			return uint32(int32(a) / int32(b))
		case signed:
			return uint32(int32(a) % int32(b))
		case in.Op == isa.OpDiv:
			return a / b
		default:
			return a % b
		}
	case isa.OpAnd:
		return a & b
	case isa.OpOr:
		return a | b
	case isa.OpXor:
		return a ^ b
	case isa.OpNot:
		return ^a
	case isa.OpShl:
		return a << (b & 31)
	case isa.OpShr:
		if signed {
			return uint32(int32(a) >> (b & 31))
		}
		return a >> (b & 31)
	case isa.OpMin, isa.OpMax:
		less := a < b
		if signed {
			less = int32(a) < int32(b)
		}
		if less == (in.Op == isa.OpMin) {
			return a
		}
		return b
	case isa.OpAbs:
		if int32(a) < 0 {
			return -a
		}
		return a
	case isa.OpNeg:
		return -a
	case isa.OpCvt:
		return scalarCvt(in.Type, in.SrcType, a)
	case isa.OpSqrt:
		return fb(float32(math.Sqrt(float64(f(a)))))
	case isa.OpRcp:
		return fb(1 / f(a))
	}
	panic(fmt.Sprintf("scalar reference has no %s", in.Op))
}

// scalarCvt is the reference cvt: integer-to-float rounds to nearest, and
// float-to-integer truncates toward zero with NaN giving 0 and out-of-range
// values saturating (PTX cvt.rzi.sat).
func scalarCvt(dst, src isa.DType, v uint32) uint32 {
	switch {
	case dst == src:
		return v
	case dst == isa.F32 && src == isa.S32:
		return math.Float32bits(float32(int32(v)))
	case dst == isa.F32:
		return math.Float32bits(float32(v))
	case src == isa.F32:
		t := math.Trunc(float64(math.Float32frombits(v)))
		lo, hi := 0.0, float64(math.MaxUint32)
		if dst == isa.S32 {
			lo, hi = math.MinInt32, math.MaxInt32
		}
		switch {
		case t != t:
			return 0
		case t <= lo:
			return uint32(int64(lo))
		case t >= hi:
			return uint32(int64(hi))
		}
		return uint32(int64(t))
	}
	return v
}

// run executes up to maxSteps instructions; it returns false on overrun.
func (s *scalarThread) run(m *mem.Memory, maxSteps int) bool {
	pc := 0
	for steps := 0; steps < maxSteps; steps++ {
		if pc >= len(s.k.Insts) {
			return true
		}
		in := s.k.Insts[pc]
		exec := true
		if in.Guard.Active() {
			exec = s.preds[in.Guard.Reg] != in.Guard.Negate
		}
		if !exec {
			pc++
			continue
		}
		switch in.Op {
		case isa.OpExit, isa.OpRet:
			return true
		case isa.OpBra:
			pc = in.Targ
			continue
		case isa.OpSetp:
			a, b := s.value(in.Srcs[0]), s.value(in.Srcs[1])
			s.preds[in.Dst.Reg] = scalarCompare(in.Type, in.Cmp, a, b)
		case isa.OpSelp:
			if s.preds[in.Srcs[2].Reg] {
				s.regs[in.Dst.Reg] = s.value(in.Srcs[0])
			} else {
				s.regs[in.Dst.Reg] = s.value(in.Srcs[1])
			}
		case isa.OpLd:
			switch in.Space {
			case isa.SpaceParam:
				off, _ := s.k.ParamOffset(in.Srcs[0].Param)
				s.regs[in.Dst.Reg] = s.l.Params[(off+int(in.Srcs[0].Imm))/4]
			case isa.SpaceGlobal:
				addr := s.regs[in.Srcs[0].Reg] + uint32(int32(in.Srcs[0].Imm))
				// Threads only read their initial input region in generated
				// kernels, so the pristine memory is the right source.
				s.regs[in.Dst.Reg] = m.Read32(addr)
			}
		case isa.OpSt:
			addr := s.regs[in.Srcs[0].Reg] + uint32(int32(in.Srcs[0].Imm))
			s.out[addr] = s.value(in.Srcs[1])
		default:
			s.regs[in.Dst.Reg] = scalarALU(in,
				s.value(in.Srcs[0]), s.value(in.Srcs[1]), s.value(in.Srcs[2]))
		}
		pc++
	}
	return false
}

// genDivergentKernel builds a random kernel with nested data-dependent
// branches, a bounded loop, predicated instructions, integer, float and
// conversion arithmetic, and a final store of a hash register to out[gtid].
// The global thread id is linearized from a possibly 2-D block, so tid.y
// and ntid.y feed the addressing.
func genDivergentKernel(rng *rand.Rand) string {
	var b strings.Builder
	b.WriteString(".kernel diffk\n.param .u32 out\n.param .u32 in\n")
	// Global thread id in %r0; input value in %r1; hash accumulator %r2.
	b.WriteString(`    mov.u32 %r10, %ctaid.x;
    mov.u32 %r11, %ntid.x;
    mul.u32 %r15, %r11, %ntid.y;
    mad.u32 %r16, %tid.y, %r11, %tid.x;
    mad.u32 %r0, %r10, %r15, %r16;
    shl.u32 %r12, %r0, 2;
    ld.param.u32 %r13, [in];
    add.u32 %r14, %r13, %r12;
    ld.global.u32 %r1, [%r14];
    mov.u32 %r2, 0;
`)
	label := 0
	newLabel := func() string { label++; return fmt.Sprintf("L%d", label) }
	pick := func(xs ...string) string { return xs[rng.Intn(len(xs))] }
	src := func() string {
		return pick("%r0", "%r1", fmt.Sprintf("%d", rng.Intn(1<<16)), "%tid.y", "%laneid")
	}

	emitInt := func() {
		op := pick("add.u32", "xor.b32", "mul.lo.u32", "sub.u32", "or.b32", "and.b32",
			"shl.b32", "shr.u32", "shr.s32", "mul.hi.u32", "mul.hi.s32", "min.s32", "max.u32")
		fmt.Fprintf(&b, "    %s %%r2, %%r2, %s;\n", op, src())
		fmt.Fprintf(&b, "    add.u32 %%r2, %%r2, %d;\n", rng.Intn(97))
	}
	emitDivRem := func() {
		// The divisor is a 2-bit field of the input, so about a quarter
		// of the lanes divide by zero; sometimes it is a literal zero.
		op := pick("div.u32", "div.s32", "rem.u32", "rem.s32")
		if rng.Intn(4) == 0 {
			fmt.Fprintf(&b, "    %s %%r2, %%r2, 0;\n", op)
			return
		}
		fmt.Fprintf(&b, "    shr.u32 %%r7, %%r1, %d;\n", rng.Intn(30))
		fmt.Fprintf(&b, "    and.b32 %%r7, %%r7, 3;\n")
		fmt.Fprintf(&b, "    %s %%r2, %%r2, %%r7;\n", op)
	}
	emitUnary := func() {
		fmt.Fprintf(&b, "    %s %%r2, %%r2;\n", pick("abs.s32", "neg.s32", "not.b32"))
	}
	emitFloat := func() {
		// Float values stay finite and within int32 range before they are
		// converted back, so cvt never sees NaN or an out-of-range value
		// here; the hash also takes the raw bits of rcp, which may be Inf.
		fmt.Fprintf(&b, "    and.b32 %%r8, %%r2, 0xffff;\n")
		if rng.Intn(2) == 0 {
			fmt.Fprintf(&b, "    sub.u32 %%r8, %%r8, 0x8000;\n")
			fmt.Fprintf(&b, "    cvt.f32.s32 %%r8, %%r8;\n")
		} else {
			fmt.Fprintf(&b, "    cvt.f32.u32 %%r8, %%r8;\n")
		}
		for n := 1 + rng.Intn(4); n > 0; n-- {
			switch rng.Intn(5) {
			case 0:
				fmt.Fprintf(&b, "    add.f32 %%r8, %%r8, %.2f;\n", rng.Float64()*16-8)
			case 1:
				fmt.Fprintf(&b, "    mul.f32 %%r8, %%r8, %.3f;\n", 0.25+rng.Float64()*1.75)
			case 2:
				fmt.Fprintf(&b, "    cvt.f32.u32 %%r9, %%r1;\n")
				fmt.Fprintf(&b, "    mul.f32 %%r9, %%r9, 0.0000000001;\n")
				fmt.Fprintf(&b, "    mad.f32 %%r8, %%r8, 0.5, %%r9;\n")
			case 3:
				fmt.Fprintf(&b, "    abs.s32 %%r8, %%r8;\n") // clears the f32 sign bit
				fmt.Fprintf(&b, "    sqrt.f32 %%r8, %%r8;\n")
			default:
				fmt.Fprintf(&b, "    rcp.f32 %%r9, %%r8;\n")
				fmt.Fprintf(&b, "    xor.b32 %%r2, %%r2, %%r9;\n")
			}
		}
		fmt.Fprintf(&b, "    %s %%r3, %%r8;\n", pick("cvt.u32.f32", "cvt.s32.f32"))
		fmt.Fprintf(&b, "    add.u32 %%r2, %%r2, %%r3;\n")
	}
	emitSelp := func() {
		fmt.Fprintf(&b, "    setp.%s.%s %%p3, %%r1, %s;\n",
			pick("eq", "ne", "lt", "le", "gt", "ge"), pick("u32", "s32"), src())
		fmt.Fprintf(&b, "    selp.u32 %%r2, %%r2, %s, %%p3;\n", src())
	}

	var emitBlock func(depth int)
	emitBlock = func(depth int) {
		n := 1 + rng.Intn(3)
		for i := 0; i < n; i++ {
			switch choice := rng.Intn(10); {
			case depth >= 3 || choice < 2:
				emitInt()
			case choice == 2:
				switch rng.Intn(3) {
				case 0:
					emitDivRem()
				case 1:
					emitUnary()
				default:
					emitSelp()
				}
			case choice == 3:
				emitFloat()
			case choice == 4 || choice == 5:
				// Predicated instruction.
				fmt.Fprintf(&b, "    setp.lt.u32 %%p0, %%r1, %d;\n", rng.Intn(1<<20))
				fmt.Fprintf(&b, "@%%p0 add.u32 %%r2, %%r2, %d;\n", rng.Intn(1<<10))
				fmt.Fprintf(&b, "@!%%p0 xor.u32 %%r2, %%r2, %d;\n", rng.Intn(1<<10))
			case choice < 8:
				// Data-dependent if/else diamond.
				thenL, joinL := newLabel(), newLabel()
				bit := uint32(1) << rng.Intn(8)
				fmt.Fprintf(&b, "    and.u32 %%r3, %%r1, %d;\n", bit)
				fmt.Fprintf(&b, "    setp.ne.u32 %%p1, %%r3, 0;\n")
				fmt.Fprintf(&b, "@%%p1 bra %s;\n", thenL)
				emitBlock(depth + 1)
				fmt.Fprintf(&b, "    bra %s;\n", joinL)
				fmt.Fprintf(&b, "%s:\n", thenL)
				emitBlock(depth + 1)
				fmt.Fprintf(&b, "%s:\n", joinL)
			default:
				// Bounded divergent loop: trip count = (input & 7) + 1.
				loopL := newLabel()
				fmt.Fprintf(&b, "    and.u32 %%r4, %%r1, 7;\n")
				fmt.Fprintf(&b, "    add.u32 %%r4, %%r4, 1;\n")
				fmt.Fprintf(&b, "    mov.u32 %%r5, 0;\n")
				fmt.Fprintf(&b, "%s:\n", loopL)
				fmt.Fprintf(&b, "    add.u32 %%r2, %%r2, %%r5;\n")
				fmt.Fprintf(&b, "    add.u32 %%r5, %%r5, 1;\n")
				fmt.Fprintf(&b, "    setp.lt.u32 %%p2, %%r5, %%r4;\n")
				fmt.Fprintf(&b, "@%%p2 bra %s;\n", loopL)
			}
		}
	}
	emitBlock(0)
	b.WriteString(`    ld.param.u32 %r20, [out];
    add.u32 %r21, %r20, %r12;
    st.global.u32 [%r21], %r2;
    exit;
`)
	return b.String()
}

// TestQuickSIMTMatchesScalarReference executes random divergent kernels both
// on the warp-level emulator and thread-by-thread on the scalar reference,
// comparing every output element.
func TestQuickSIMTMatchesScalarReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		src := genDivergentKernel(rng)
		prog, err := ptx.Parse(src)
		if err != nil {
			t.Fatalf("generated kernel does not parse: %v\n%s", err, src)
		}
		k := prog.Kernels[0]

		// 2 CTAs of 48 threads, partial warps included; the block is 1-D
		// or 2-D.
		block := []Dim3{Dim1(48), Dim2(16, 3), Dim2(8, 6), Dim2(24, 2)}[rng.Intn(4)]
		const nCTA = 2
		bt := block.Count()
		nThreads := nCTA * bt
		input := make([]uint32, nThreads)
		for i := range input {
			input[i] = rng.Uint32()
		}

		// SIMT execution.
		m := mem.New()
		inB := m.AllocU32s(input)
		outB := m.Alloc(uint32(4 * nThreads))
		l := &Launch{Kernel: k, Grid: Dim1(nCTA), Block: block,
			Params: []uint32{outB, inB}}
		if _, err := Run(&Env{Mem: m, Launch: l}, RunOptions{}); err != nil {
			t.Fatalf("SIMT run: %v\n%s", err, src)
		}

		// Scalar reference, thread by thread against pristine inputs.
		ref := mem.New()
		refIn := ref.AllocU32s(input)
		if refIn != inB {
			t.Fatalf("allocator divergence")
		}
		ok := true
		for gtid := 0; gtid < nThreads; gtid++ {
			lin := gtid % bt
			st := &scalarThread{
				k: k, l: l,
				cta:   Dim3{X: gtid / bt, Y: 0, Z: 0},
				ctaID: gtid / bt,
				tid:   Dim3{X: lin % block.X, Y: lin / block.X, Z: 0},
				lane:  lin % WarpSize,
				warp:  lin / WarpSize,
				regs:  make([]uint32, k.NumRegs),
				preds: make([]bool, k.NumPreds),
				out:   map[uint32]uint32{},
			}
			if !st.run(ref, 100000) {
				t.Fatalf("scalar reference did not terminate\n%s", src)
			}
			want := st.out[outB+uint32(4*gtid)]
			got := m.Read32(outB + uint32(4*gtid))
			if got != want {
				t.Logf("thread %d: SIMT %#x != scalar %#x (seed %d)\n%s", gtid, got, want, seed, src)
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
