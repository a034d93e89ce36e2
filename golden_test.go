package rfprism_test

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"rfprism"
	"rfprism/internal/core"
	"rfprism/internal/geom"
	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

// goldenSolverDigest is the FNV-64a hash of the float64 bit patterns
// of every estimate, fitted line and confidence field produced by
// goldenSolverRun. Kernel work on the solve path (cheaper remainders,
// fused trig, fewer allocations) must leave it unchanged: the contract
// is bit identity, not closeness. Update it only with a change that
// means to move the solver's numbers, and say so in CHANGES.md.
const goldenSolverDigest = 0x2f7c51ef1c8fb1ae

// digest accumulates float64 bit patterns and integers in a fixed order.
type digest struct{ h hash.Hash64 }

func (d digest) i(v int) { d.h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v))) }

func (d digest) f(vs ...float64) {
	for _, v := range vs {
		d.h.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
	}
}

func (d digest) estimate(e core.Estimate) {
	d.f(e.Pos.X, e.Pos.Y, e.Pos.Z, e.Alpha, e.Azimuth, e.Elevation, e.Kt, e.Bt0, e.Cost)
}

func (d digest) result(res *rfprism.Result) {
	d.estimate(res.Estimate)
	for _, l := range res.Lines {
		d.f(l.K, l.B0, l.SigmaK, l.SigmaB0, l.ResidStd)
		d.i(l.NumUsed)
	}
	c := res.Confidence
	if c == nil {
		d.i(-1)
		return
	}
	d.f(c.Cov.Data...)
	d.f(c.Sigma...)
	d.f(c.PosCI90.X, c.PosCI90.Y, c.PosCI90.Z, c.AlphaCI90, c.NormLogLik,
		c.AmbiguityMargin, c.SigmaPhase, c.Cost)
	d.i(c.AltBasins)
	d.i(c.N)
}

func observations(scene *sim.Scene, res *rfprism.Result) []core.Observation {
	obs := make([]core.Observation, 0, len(scene.Antennas))
	for i, ant := range scene.Antennas {
		obs = append(obs, core.Observation{ID: ant.ID, Pos: ant.Pos, Frame: ant.Frame(), Line: res.Lines[i]})
	}
	return obs
}

// goldenSolverRun drives the solve path on seeded windows: cold 2D
// solves in a clean and a multipath room, a warm-started 2D solve, a
// cold 3D solve and a full ProcessWindow with the confidence pass.
func goldenSolverRun(t *testing.T) uint64 {
	t.Helper()
	h := fnv.New64a()
	d := digest{h}
	none, err := rf.MaterialByName("none")
	if err != nil {
		t.Fatal(err)
	}
	bounds := rfprism.Bounds2D(sim.PaperRegion())

	for _, env := range []rf.Environment{rf.CleanSpace(), rf.LabMultipath()} {
		scene, err := sim.NewScene(sim.PaperAntennas2D(nil), env, sim.DefaultConfig(), 21)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := rfprism.NewSystem(rfprism.DeploymentFromSim(scene.Antennas), bounds, rfprism.WithConfidence())
		if err != nil {
			t.Fatal(err)
		}
		tag := scene.NewTag("golden")
		calPos := geom.Vec3{X: 1.0, Y: 1.5}
		if err := sys.CalibrateAntennas(scene.CollectWindow(tag, scene.Place(calPos, 0, none)), calPos, 0); err != nil {
			t.Fatal(err)
		}
		var prev *core.Estimate
		var stats core.SolveStats
		for k, pos := range []geom.Vec3{{X: 0.6, Y: 1.1}, {X: 0.62, Y: 1.12}, {X: 1.3, Y: 0.7}} {
			res, err := sys.ProcessWindow(scene.CollectWindow(tag, scene.Place(pos, 0.5+0.7*float64(k), none)))
			if err != nil {
				t.Fatal(err)
			}
			d.result(res)
			obs := observations(scene, res)
			opts := core.Options{Parallelism: 1, Stats: &stats}
			if k == 1 {
				opts.WarmStart = prev
			}
			est, err := core.Solve2D(obs, bounds, opts)
			if err != nil {
				t.Fatal(err)
			}
			d.estimate(est)
			prev = &est
		}
		if stats.WarmAttempts.Load() != 1 || stats.WarmFallbacks.Load() != 0 {
			t.Fatalf("warm solve: %d attempts, %d fallbacks; want 1 and 0",
				stats.WarmAttempts.Load(), stats.WarmFallbacks.Load())
		}
	}

	scene, err := sim.NewScene(sim.PaperAntennas3D(nil), rf.CleanSpace(), sim.DefaultConfig(), 22)
	if err != nil {
		t.Fatal(err)
	}
	b3 := bounds
	b3.ZMin, b3.ZMax = 0, 0.8
	sys, err := rfprism.NewSystem(rfprism.DeploymentFromSim(scene.Antennas), b3, rfprism.WithMode3D())
	if err != nil {
		t.Fatal(err)
	}
	pl := sim.Static{
		Pos:          geom.Vec3{X: 0.9, Y: 1.4, Z: 0.3},
		Polarization: rf.TagPolarization3D(0.7, 0.3),
		Material:     none,
		Attach:       rf.Attach(none, rf.AttachmentJitter{}, nil),
	}
	res, err := sys.ProcessWindow(scene.CollectWindow(scene.NewTag("golden3d"), pl))
	if err != nil {
		t.Fatal(err)
	}
	d.result(res)
	est, err := core.Solve3D(observations(scene, res), b3, core.Options{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	d.estimate(est)
	return h.Sum64()
}

// TestGoldenSolverDigest pins the solver's output bit for bit. Go may
// fuse x*y+z into one FMA on architectures other than amd64, which
// legitimately moves the last bits, so the pinned value is checked on
// amd64 only; elsewhere the run must still be deterministic.
func TestGoldenSolverDigest(t *testing.T) {
	got := goldenSolverRun(t)
	if runtime.GOARCH != "amd64" {
		if again := goldenSolverRun(t); again != got {
			t.Fatalf("solver digest not deterministic: %#x then %#x", got, again)
		}
		return
	}
	if got != goldenSolverDigest {
		t.Fatalf("solver digest %#x, pinned %#x: the solve path's numbers moved", got, uint64(goldenSolverDigest))
	}
}
