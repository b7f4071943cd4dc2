package sim

import "math/bits"

// math/rand/v2's PCG is a 128-bit LCG: each Uint64 steps the state to
// state*pcgMul + pcgInc (mod 2^128) and returns the DXSM mix of the new
// state. These are its constants; dxsm is its output function.
const (
	pcgMulHi = 2549297995355413924
	pcgMulLo = 4865540595714422341
	pcgIncHi = 6364136223846793005
	pcgIncLo = 1442695040888963407
)

// pcgState is a PCG's 128-bit state, the (hi, lo) that rand.NewPCG takes
// as its two seeds.
type pcgState struct{ hi, lo uint64 }

// mul returns s*t mod 2^128.
func (s pcgState) mul(t pcgState) pcgState {
	hi, lo := bits.Mul64(s.lo, t.lo)
	hi += s.hi*t.lo + s.lo*t.hi
	return pcgState{hi, lo}
}

// add returns s+t mod 2^128.
func (s pcgState) add(t pcgState) pcgState {
	lo, c := bits.Add64(s.lo, t.lo, 0)
	hi, _ := bits.Add64(s.hi, t.hi, c)
	return pcgState{hi, lo}
}

// pcgStep is g steps of the generator as one affine map: the state g
// steps on is state*mul + add. Stepping g times multiplies by pcgMul^g
// and adds pcgInc·(pcgMul^(g−1) + … + 1) — Brown's arbitrary-stride LCG,
// pcg-cpp's advance.
type pcgStep struct{ mul, add pcgState }

// maxPCGJump is the longest stride pcgJumps holds; a longer one chains
// them.
const maxPCGJump = 64

// pcgJumps[g] advances a state by g steps, for g = 0…maxPCGJump: entry 0
// is the identity, and entry g+1 is one step after entry g.
var pcgJumps = func() (t [maxPCGJump + 1]pcgStep) {
	mul, inc := pcgState{pcgMulHi, pcgMulLo}, pcgState{pcgIncHi, pcgIncLo}
	t[0].mul = pcgState{0, 1}
	for g := 1; g <= maxPCGJump; g++ {
		t[g] = pcgStep{t[g-1].mul.mul(mul), t[g-1].add.mul(mul).add(inc)}
	}
	return t
}()

// jump returns the state g steps on, for g ≤ maxPCGJump: what g calls to
// Uint64 leave. A longer stride chains whole table strides first. It is
// small enough to inline, so a draw loop keeps the state in registers.
func (s pcgState) jump(g uint) pcgState {
	st := &pcgJumps[g]
	return s.mul(st.mul).add(st.add)
}

// dxsm is the PCG's "double xorshift multiply" output for a state just
// stepped to: the value Uint64 returns.
func (s pcgState) dxsm() uint64 {
	const cheapMul = 0xda942042e4dd58b5
	hi := s.hi
	hi ^= hi >> 32
	hi *= cheapMul
	hi ^= hi >> 48
	hi *= s.lo | 1
	return hi
}
