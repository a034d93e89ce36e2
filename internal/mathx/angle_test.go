package mathx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestWrap2Pi(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{1, 1},
		{2 * math.Pi, 0},
		{-1, 2*math.Pi - 1},
		{7, 7 - 2*math.Pi},
		{-4 * math.Pi, 0},
		{5 * math.Pi, math.Pi},
	}
	for _, c := range cases {
		if got := Wrap2Pi(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Wrap2Pi(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestWrapPi(t *testing.T) {
	cases := []struct{ in, want float64 }{
		{0, 0},
		{math.Pi, math.Pi},
		{-math.Pi, math.Pi},
		{3 * math.Pi / 2, -math.Pi / 2},
		{2 * math.Pi, 0},
		{-0.1, -0.1},
	}
	for _, c := range cases {
		if got := WrapPi(c.in); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("WrapPi(%g) = %g, want %g", c.in, got, c.want)
		}
	}
}

func TestWrapPropertyRanges(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e12 {
			return true
		}
		w2 := Wrap2Pi(x)
		wp := WrapPi(x)
		if w2 < 0 || w2 >= 2*math.Pi {
			return false
		}
		if wp <= -math.Pi || wp > math.Pi {
			return false
		}
		// Both must be congruent to x modulo 2π.
		return math.Abs(WrapPi(w2-x)) < 1e-6 && math.Abs(WrapPi(wp-x)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAngDiff(t *testing.T) {
	if got := AngDiff(0.1, 2*math.Pi-0.1); math.Abs(got-0.2) > 1e-12 {
		t.Errorf("AngDiff across wrap = %g, want 0.2", got)
	}
	if got := AngDiff(1, 2); math.Abs(got+1) > 1e-12 {
		t.Errorf("AngDiff(1,2) = %g, want -1", got)
	}
}

func TestAngDiffPeriod(t *testing.T) {
	// Dipole angles alias every π.
	if got := AngDiffPeriod(0.05, math.Pi-0.05, math.Pi); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("AngDiffPeriod = %g, want 0.1", got)
	}
	if got := AngDiffPeriod(3, 0, math.Pi); math.Abs(got-(3-math.Pi)) > 1e-12 {
		t.Errorf("AngDiffPeriod(3,0,π) = %g, want %g", got, 3-math.Pi)
	}
}

func TestAngDiffPeriodProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.Abs(a) > 1e6 || math.Abs(b) > 1e6 {
			return true
		}
		d := AngDiffPeriod(a, b, math.Pi)
		if d <= -math.Pi/2-1e-9 || d > math.Pi/2+1e-9 {
			return false
		}
		// a-b-d must be a multiple of π.
		k := (a - b - d) / math.Pi
		return math.Abs(k-math.Round(k)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnwrap(t *testing.T) {
	// A steadily increasing phase wrapped into [0, 2π) must unwrap to
	// a line (up to the initial offset).
	n := 100
	truth := make([]float64, n)
	wrapped := make([]float64, n)
	for i := range truth {
		truth[i] = 0.3 + 0.5*float64(i)
		wrapped[i] = Wrap2Pi(truth[i])
	}
	got := Unwrap(wrapped)
	for i := range got {
		if math.Abs(got[i]-truth[i]) > 1e-9 {
			t.Fatalf("Unwrap[%d] = %g, want %g", i, got[i], truth[i])
		}
	}
}

func TestUnwrapEmptyAndSingle(t *testing.T) {
	if got := Unwrap(nil); len(got) != 0 {
		t.Errorf("Unwrap(nil) = %v", got)
	}
	if got := Unwrap([]float64{1.5}); len(got) != 1 || got[0] != 1.5 {
		t.Errorf("Unwrap single = %v", got)
	}
}

func TestUnwrapHalfPi(t *testing.T) {
	// A slowly increasing phase with a π flip in the middle must come
	// back smooth.
	in := []float64{0.1, 0.2, 0.3 + math.Pi, 0.4, 0.5}
	got := UnwrapHalfPi(in)
	for i := 1; i < len(got); i++ {
		if d := math.Abs(got[i] - got[i-1]); d > 0.5 {
			t.Fatalf("UnwrapHalfPi left a jump of %g at %d: %v", d, i, got)
		}
	}
}

func TestCircMean(t *testing.T) {
	// Angles straddling the wrap point.
	m := CircMean([]float64{2*math.Pi - 0.1, 0.1})
	if math.Abs(WrapPi(m)) > 1e-9 {
		t.Errorf("CircMean straddling wrap = %g, want 0", m)
	}
	if got := CircMean(nil); got != 0 {
		t.Errorf("CircMean(nil) = %g", got)
	}
	if got := CircMean([]float64{1.25}); math.Abs(got-1.25) > 1e-12 {
		t.Errorf("CircMean single = %g", got)
	}
}

func TestCircStd(t *testing.T) {
	tight := CircStd([]float64{1.0, 1.01, 0.99, 1.0})
	loose := CircStd([]float64{0, 1, 2, 3, 4, 5})
	if tight >= loose {
		t.Errorf("CircStd tight %g >= loose %g", tight, loose)
	}
	if got := CircStd([]float64{1}); got != 0 {
		t.Errorf("CircStd single = %g", got)
	}
}

func TestDegRadRoundTrip(t *testing.T) {
	f := func(x float64) bool {
		if math.IsNaN(x) || math.Abs(x) > 1e9 {
			return true
		}
		return math.Abs(Deg(Rad(x))-x) < 1e-9*math.Max(1, math.Abs(x))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestWrapOpenEnd: a negative input smaller in magnitude than half an
// ulp of 2π used to round up onto 2π itself, outside [0, 2π).
func TestWrapOpenEnd(t *testing.T) {
	for _, x := range []float64{-1e-17, -5e-324} {
		if got := Wrap2Pi(x); got != 0 {
			t.Errorf("Wrap2Pi(%g) = %v, want 0", x, got)
		}
	}
	if got := Wrap2Pi(-1e-15); got <= 0 || got >= TwoPi {
		t.Errorf("Wrap2Pi(-1e-15) = %v, want just below 2π", got)
	}
}

// modSeeds are the edge cases of the Mod fast path: signed zeros,
// exact multiples of y and their neighbours, NaN and infinities,
// subnormal y, and |x| at the 2⁴⁰·y fast-path limit.
func modSeeds() [][2]float64 {
	inf, nan := math.Inf(1), math.NaN()
	var seeds [][2]float64
	for _, y := range []float64{TwoPi, math.Pi, 180, 1, 0.1, 5e-324, 1e-310, math.MaxFloat64} {
		for _, x := range []float64{
			0, y, 3 * y, 1e6 * y, y * modFastSpan, y * (modFastSpan - 1), 0.5 * y,
			math.Nextafter(y, 0), math.Nextafter(y, inf),
			math.Nextafter(3*y, 0), math.Nextafter(3*y, inf),
			math.Nextafter(y*modFastSpan, 0), math.Nextafter(y*modFastSpan, inf),
			5e-324, 1, math.MaxFloat64, inf, nan,
		} {
			seeds = append(seeds, [2]float64{x, y}, [2]float64{-x, y})
		}
	}
	for _, y := range []float64{0, -TwoPi, inf, -inf, nan, -5e-324} {
		seeds = append(seeds, [2]float64{1, y}, [2]float64{-7.5, y}, [2]float64{0, y})
	}
	return append(seeds, [2]float64{math.Copysign(0, -1), TwoPi})
}

func checkMod(t *testing.T, x, y float64) {
	t.Helper()
	got, want := Mod(x, y), math.Mod(x, y)
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("Mod(%v, %v) = %v (%#x), math.Mod = %v (%#x)",
			x, y, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestModMatchesMathMod checks Mod against math.Mod bit for bit on the
// edge seeds and a seeded sweep of the wrap helpers' input ranges.
func TestModMatchesMathMod(t *testing.T) {
	for _, s := range modSeeds() {
		checkMod(t, s[0], s[1])
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200000; i++ {
		y := []float64{TwoPi, math.Pi, 180}[i%3]
		x := (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(60)-10)
		checkMod(t, x, y)
		checkMod(t, math.Float64frombits(rng.Uint64()), math.Float64frombits(rng.Uint64()))
	}
}

// FuzzMod: Mod must equal math.Mod bit for bit, sign of zero included.
func FuzzMod(f *testing.F) {
	for _, s := range modSeeds() {
		f.Add(s[0], s[1])
	}
	f.Fuzz(checkMod)
}

// TestSincosMatchesSinCos: the solve path takes sine and cosine of one
// angle from math.Sincos, which must equal math.Sin and math.Cos bit
// for bit on finite inputs for the estimates to stay unchanged.
func TestSincosMatchesSinCos(t *testing.T) {
	check := func(x float64) {
		s, c := math.Sincos(x)
		if math.Float64bits(s) != math.Float64bits(math.Sin(x)) || math.Float64bits(c) != math.Float64bits(math.Cos(x)) {
			t.Fatalf("Sincos(%v) = (%v, %v), Sin/Cos = (%v, %v)", x, s, c, math.Sin(x), math.Cos(x))
		}
	}
	for _, x := range []float64{0, math.Copysign(0, -1), 5e-324, math.Pi, -math.Pi / 2, 1 << 29, 1 << 30, 1e300, math.MaxFloat64} {
		check(x)
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200000; i++ {
		check((rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(80)-20))
	}
}
