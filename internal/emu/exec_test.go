package emu

import (
	"testing"

	"critload/internal/mem"
)

// shapesSrc holds one instruction per hot-path shape of Execute; the tests
// re-point the warp at one of them before every call.
const shapesSrc = `
.kernel shapes
.param .u32 buf
    add.u32       %r1, %r1, %r2;
@%p0 add.u32      %r3, %r3, %r2;
    setp.lt.u32   %p1, %r1, %r2;
    ld.global.u32 %r4, [%r5+4];
    exit;
`

var executeShapes = []struct {
	name string
	pc   int
	exec uint32 // the lanes the shape executes
	mem  bool
}{
	{"alu", 0, FullMask, false},
	{"alu-half-mask", 1, 0x0000ffff, false},
	{"setp", 2, FullMask, false},
	{"ld-global", 3, FullMask, true},
}

// newShapesWarp returns warp 0 of a full 32-thread CTA running shapesSrc,
// with %p0 set on the low half of the lanes and %r5 pointing each lane at
// its own word of a global buffer.
func newShapesWarp(t testing.TB) (*Warp, *Env) {
	t.Helper()
	k := mustKernel(t, shapesSrc, "shapes")
	m := mem.New()
	buf := m.Alloc(4 * (WarpSize + 1))
	l := &Launch{Kernel: k, Grid: Dim1(1), Block: Dim1(WarpSize), Params: []uint32{buf}}
	w := NewCTA(l, 0).Warps[0]
	for lane := 0; lane < WarpSize; lane++ {
		m.Write32(buf+uint32(4*(lane+1)), uint32(lane*lane))
		w.reg(2)[lane] = uint32(lane)
		w.reg(5)[lane] = buf + uint32(4*lane)
	}
	w.preds[0] = 0x0000ffff
	return w, &Env{Mem: m, Launch: l}
}

// executeAt runs the instruction at pc, leaving the warp there for the next
// call.
func executeAt(w *Warp, env *Env, pc int, step *Step) error {
	w.stack[len(w.stack)-1].pc = pc
	return w.Execute(env, step)
}

// TestExecuteDoesNotAllocate guards the emulator's share of the simulator's
// zero-allocation hot path: a steady-state warp instruction allocates
// nothing.
func TestExecuteDoesNotAllocate(t *testing.T) {
	w, env := newShapesWarp(t)
	var step Step
	for _, sh := range executeShapes {
		allocs := testing.AllocsPerRun(100, func() {
			if err := executeAt(w, env, sh.pc, &step); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocations per Execute, want 0", sh.name, allocs)
		}
		if step.Exec != sh.exec || step.Mem != sh.mem {
			t.Errorf("%s: step has exec %#x mem %v, want %#x %v", sh.name, step.Exec, step.Mem, sh.exec, sh.mem)
		}
	}
	for lane := 0; lane < WarpSize; lane++ {
		if got := w.reg(4)[lane]; got != uint32(lane*lane) {
			t.Errorf("load lane %d = %d, want %d", lane, got, lane*lane)
		}
	}
}

// BenchmarkExecute measures one warp instruction of each hot-path shape.
func BenchmarkExecute(b *testing.B) {
	for _, sh := range executeShapes {
		b.Run(sh.name, func(b *testing.B) {
			w, env := newShapesWarp(b)
			var step Step
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := executeAt(w, env, sh.pc, &step); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/warp-inst")
		})
	}
}

// TestTidVectors checks the prebuilt %tid lane vectors against the block's
// x-fastest linearization, on a 3-D block whose last warp is partial.
func TestTidVectors(t *testing.T) {
	k := mustKernel(t, shapesSrc, "shapes")
	block := Dim3{X: 5, Y: 3, Z: 4} // 60 threads: two warps, the second partial
	l := &Launch{Kernel: k, Grid: Dim1(1), Block: block, Params: []uint32{0}}
	for _, w := range NewCTA(l, 0).Warps {
		for lane := 0; lane < WarpSize; lane++ {
			tid := w.Index*WarpSize + lane
			want := [3]uint32{}
			if tid < block.Count() {
				want = [3]uint32{uint32(tid % block.X), uint32(tid / block.X % block.Y),
					uint32(tid / (block.X * block.Y))}
			}
			got := [3]uint32{w.tid[0][lane], w.tid[1][lane], w.tid[2][lane]}
			if got != want {
				t.Errorf("warp %d lane %d: tid = %v, want %v", w.Index, lane, got, want)
			}
		}
	}
}
