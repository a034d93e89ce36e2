// Package mathx provides the numerical kernels RF-Prism needs and that
// the Go standard library lacks: small dense linear algebra, linear and
// nonlinear least squares, basic optimizers, descriptive statistics and
// circular (angular) statistics.
//
// Everything here is deterministic and allocation-conscious; the solver
// hot paths reuse caller-provided buffers where that matters.
package mathx

import (
	"fmt"
	"math"
)

// TwoPi is the full circle in radians.
const TwoPi = 2 * math.Pi

// modFastSpan bounds the quotient |x|/y Mod resolves itself: below
// 2⁴⁰ the rounded quotient is within one of the true one.
const modFastSpan = 1 << 40

// Mod returns math.Mod(x, y) bit for bit, sign of zero included, at a
// fraction of its cost on the wrap helpers' inputs. The remainder of
// fmod is always exactly representable, so for finite y > 0 and
// |x| < y·2⁴⁰ it is |x| − k·y for the integer k = ⌊|x|/y⌋, and one FMA
// computes that product-difference without rounding. The rounded
// quotient never falls below the true one and exceeds it by at most
// one, in which case the remainder came out in [−y, 0) and adding y
// back is exact too. Every other input goes to math.Mod.
func Mod(x, y float64) float64 {
	ax := math.Abs(x)
	if !(y > 0 && y <= math.MaxFloat64 && ax < y*modFastSpan) {
		return math.Mod(x, y)
	}
	k := math.Floor(ax / y)
	r := math.FMA(-k, y, ax)
	if r < 0 {
		r += y
	}
	return math.Copysign(r, x)
}

// Wrap2Pi wraps x into [0, 2π).
func Wrap2Pi(x float64) float64 {
	x = Mod(x, TwoPi)
	if x < 0 {
		x += TwoPi
		if x == TwoPi { // |x| < ulp(2π)/2 rounds onto the open end
			x = 0
		}
	}
	return x
}

// WrapPi wraps x into (-π, π].
func WrapPi(x float64) float64 {
	x = Mod(x+math.Pi, TwoPi)
	if x <= 0 {
		x += TwoPi
	}
	return x - math.Pi
}

// AngDiff returns the signed minimal angular difference a-b in (-π, π].
func AngDiff(a, b float64) float64 {
	return WrapPi(a - b)
}

// AngDiffPeriod returns the signed minimal difference a-b for angles
// with the given period (e.g. π for dipole orientations that alias
// every 180°). The result lies in (-period/2, period/2].
func AngDiffPeriod(a, b, period float64) float64 {
	d := Mod(a-b, period)
	half := period / 2
	if d > half {
		d -= period
	} else if d <= -half {
		d += period
	}
	return d
}

// Unwrap removes 2π jumps from a sequence of wrapped phases, returning
// a new slice. Consecutive samples are assumed to differ by less than π
// in the underlying continuous signal.
func Unwrap(phase []float64) []float64 {
	out := make([]float64, len(phase))
	if len(phase) == 0 {
		return out
	}
	out[0] = phase[0]
	offset := 0.0
	for i := 1; i < len(phase); i++ {
		d := phase[i] - phase[i-1]
		if d > math.Pi {
			offset -= TwoPi
		} else if d < -math.Pi {
			offset += TwoPi
		}
		out[i] = phase[i] + offset
	}
	return out
}

// UnwrapHalfPi is like Unwrap but additionally corrects the "sudden π
// jump" that commodity RFID readers introduce (the reader resolves the
// backscatter constellation only up to a sign, so reported phase can
// hop by exactly π between reads). Any consecutive step closer to π
// than to 0 (mod 2π) is treated as a π artifact and removed.
func UnwrapHalfPi(phase []float64) []float64 {
	out := make([]float64, len(phase))
	if len(phase) == 0 {
		return out
	}
	out[0] = phase[0]
	for i := 1; i < len(phase); i++ {
		prev := out[i-1]
		cand := phase[i]
		// Choose among cand + k*π the value closest to prev: this
		// simultaneously undoes 2π folding and π sign flips.
		k := math.Round((prev - cand) / math.Pi)
		out[i] = cand + k*math.Pi
	}
	return out
}

// CircMean returns the circular mean of the given angles in radians,
// wrapped into [0, 2π). For an empty slice it returns 0.
func CircMean(angles []float64) float64 {
	if len(angles) == 0 {
		return 0
	}
	var s, c float64
	for _, a := range angles {
		s += math.Sin(a)
		c += math.Cos(a)
	}
	return Wrap2Pi(math.Atan2(s, c))
}

// CircStd returns the circular standard deviation of the given angles,
// computed from the resultant length R as sqrt(-2 ln R).
func CircStd(angles []float64) float64 {
	if len(angles) < 2 {
		return 0
	}
	var s, c float64
	for _, a := range angles {
		s += math.Sin(a)
		c += math.Cos(a)
	}
	n := float64(len(angles))
	r := math.Hypot(s/n, c/n)
	if r >= 1 {
		return 0
	}
	if r <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(-2 * math.Log(r))
}

// Deg converts radians to degrees.
func Deg(rad float64) float64 { return rad * 180 / math.Pi }

// Rad converts degrees to radians.
func Rad(deg float64) float64 { return deg * math.Pi / 180 }

// FmtDeg renders an angle (radians) as degrees with one decimal — a
// small convenience for diagnostics and examples.
func FmtDeg(rad float64) string {
	d := Deg(Wrap2Pi(rad))
	return fmt.Sprintf("%6.1f", d)
}
