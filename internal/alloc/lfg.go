package alloc

import (
	"math"
	"math/rand"
)

// math/rand's source is an additive lagged Fibonacci generator
// ($GOROOT/src/math/rand/rng.go, rngLen and rngTap): its output k ≥
// lfgLen is output k−lfgLen plus output k−lfgTap, mod 2^64.
const (
	lfgLen = 607
	lfgTap = 273
)

// lfg continues the sequence of rand.NewSource(seed) a block at a time.
// It takes the source's first lfgLen outputs as its state and computes
// each later block of lfgLen outputs in two passes, so a draw costs an
// add and no call through the rand.Source interface. int63 and int63n
// draw exactly what rand.Rand's Int63 and Int63n draw, and holes what
// one Float64 per page draws, in the same order.
type lfg struct {
	v    [lfgLen]uint64 // the current block of outputs
	next int            // index in v of the next output to hand out
}

// seed starts the sequence of rand.NewSource(s).
func (g *lfg) seed(s int64) {
	src := rand.NewSource(s).(rand.Source64)
	for i := range g.v {
		g.v[i] = src.Uint64()
	}
	g.next = 0
}

// refill replaces the block with the next one. Output n+lfgLen+i is
// output n+i plus output n+lfgLen−lfgTap+i, which is still in the old
// block for i < lfgTap and already in the new one from there on.
func (g *lfg) refill() {
	v := &g.v
	for i := 0; i < lfgTap; i++ {
		v[i] += v[i+lfgLen-lfgTap]
	}
	for i := lfgTap; i < lfgLen; i++ {
		v[i] += v[i-lfgTap]
	}
	g.next = 0
}

// int63 is rand.Rand.Int63.
func (g *lfg) int63() int64 {
	if g.next == lfgLen {
		g.refill()
	}
	x := g.v[g.next]
	g.next++
	return int64(x &^ (1 << 63))
}

// int63n is rand.Rand.Int63n, n > 0: a power of two masks one draw, and
// any other n redraws values past the largest multiple of n.
func (g *lfg) int63n(n int64) int64 {
	if n&(n-1) == 0 {
		return g.int63() & (n - 1)
	}
	max := int64((1 << 63) - 1 - (1<<63)%uint64(n))
	v := g.int63()
	for v > max {
		v = g.int63()
	}
	return v % n
}

// holes makes one rand.Rand.Float64 draw for each page i below pages
// and writes dst, one bit per page: bit i is set when the draw, before
// its division by 2^63, is below bound. Like Float64 it redraws the
// values that the division rounds to 1. It builds each word of dst in a
// register, reading the block in place.
func (g *lfg) holes(dst []uint64, pages uint64, bound int64) {
	next, one := g.next, floatOne
	for w := range dst {
		n := min(pages-uint64(w)*64, 64)
		var h uint64
		for k := uint64(0); k < n; {
			if next == lfgLen {
				g.refill()
				next = 0
			}
			x := int64(g.v[next] &^ (1 << 63))
			next++
			if x >= one {
				continue // Float64 redraws it
			}
			// Each page's bit enters at the top and moves down one place
			// per later page; x−bound is negative, its sign bit set, for
			// a hole.
			h = h>>1 | uint64(x-bound)&(1<<63)
			k++
		}
		dst[w] = h >> (64 - n)
	}
	g.next = next
}

// floatOne is the least draw that float64(v)/(1<<63) rounds to 1.
var floatOne = floatBound(1)

// floatBound returns the least v ≥ 0 with float64(v)/(1<<63) ≥ x, for x
// in [0, 1]. The conversion rounds monotonically, so a draw v makes
// float64(v)/(1<<63) < x exactly when v < floatBound(x).
func floatBound(x float64) int64 {
	lo, hi := int64(0), int64(math.MaxInt64) // float64(MaxInt64) is 1<<63
	for lo < hi {
		m := lo + (hi-lo)/2
		if float64(m)/(1<<63) >= x {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}
