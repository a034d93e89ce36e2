package exp

import (
	"math"
	"strings"
	"testing"

	"rfprism/internal/geom"
	"rfprism/internal/rf"
)

func TestNewSetupCalibrates(t *testing.T) {
	s, err := NewSetup(Config{Seed: 1, CalWindows: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Sys.TagCalibration(s.Tag.EPC); !ok {
		t.Fatal("tag calibration missing after setup")
	}
	cal := s.Sys.AntennaCalibration()
	if len(cal.DK) != 3 {
		t.Fatalf("antenna calibration for %d ports", len(cal.DK))
	}
}

func TestRunTrialAccuracy(t *testing.T) {
	s, err := NewSetup(Config{Seed: 2, CalWindows: 2})
	if err != nil {
		t.Fatal(err)
	}
	none, err := rf.MaterialByName("none")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := s.RunTrial(geom.Vec3{X: 0.8, Y: 0.9}, 0.7, none)
	if err != nil {
		t.Fatal(err)
	}
	if tr.LocErrM > 0.3 {
		t.Fatalf("trial localization error %.2f m", tr.LocErrM)
	}
	if tr.Region != geom.RegionNear {
		t.Fatalf("(0.8, 0.9) classified as %v", tr.Region)
	}
}

func TestRegionBucketsCoverRegion(t *testing.T) {
	s, err := NewSetup(Config{Seed: 3, CalWindows: 1})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[geom.Region]int{}
	for _, p := range s.GridPositions() {
		seen[s.RegionOf(p)]++
	}
	for _, r := range []geom.Region{geom.RegionNear, geom.RegionMedium, geom.RegionFar} {
		if seen[r] == 0 {
			t.Fatalf("no grid point in region %v (got %v)", r, seen)
		}
	}
}

func TestRandomPositionInsideRegion(t *testing.T) {
	s, err := NewSetup(Config{Seed: 4, CalWindows: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		p := s.RandomPosition()
		if !s.Region.Contains(p.X, p.Y) {
			t.Fatalf("random position %v outside region", p)
		}
	}
}

func TestFig4SlopesGrowWithDistance(t *testing.T) {
	r, err := RunFig4(Config{Seed: 5, CalWindows: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Series) != 3 {
		t.Fatalf("%d series", len(r.Series))
	}
	if !(r.Series[0].Line.K < r.Series[1].Line.K && r.Series[1].Line.K < r.Series[2].Line.K) {
		t.Fatalf("slopes not increasing with distance: %g %g %g",
			r.Series[0].Line.K, r.Series[1].Line.K, r.Series[2].Line.K)
	}
	if !strings.Contains(r.String(), "Fig. 4") {
		t.Error("renderer missing title")
	}
}

func TestFig5SlopesOrientationInvariant(t *testing.T) {
	r, err := RunFig5(Config{Seed: 6, CalWindows: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Rotating the tag must not change the slope (Fig. 5)...
	for _, s := range r.Series[1:] {
		if rel := math.Abs(s.Line.K-r.Series[0].Line.K) / r.Series[0].Line.K; rel > 0.02 {
			t.Fatalf("slope changed by %.1f%% under rotation", rel*100)
		}
	}
	// ...but the intercept must move.
	b0 := r.Series[0].Line.B0
	moved := false
	for _, s := range r.Series[1:] {
		if math.Abs(s.Line.B0-b0) > 0.3 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("intercept did not respond to rotation")
	}
}

func TestFig6SlopesMaterialDependent(t *testing.T) {
	r, err := RunFig6(Config{Seed: 7, CalWindows: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Wood, glass, plastic at the same spot: slopes must differ
	// (glass has the largest polarizability of the three).
	kWood, kGlass, kPlastic := r.Series[0].Line.K, r.Series[1].Line.K, r.Series[2].Line.K
	if !(kGlass > kWood && kGlass > kPlastic) {
		t.Fatalf("glass slope %g not the largest (wood %g, plastic %g)", kGlass, kWood, kPlastic)
	}
}

func TestMobilityLinearityGap(t *testing.T) {
	static, moving, err := MobilityLinearity(Config{Seed: 8, CalWindows: 1}, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if moving < 4*static {
		t.Fatalf("mobility residual %.3f not clearly above static %.3f", moving, static)
	}
}

func TestSmallLocCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign too slow for -short")
	}
	c, err := RunLocCampaign(Config{Seed: 9, CalWindows: 2}, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.DegreeTrials) < 100 {
		t.Fatalf("only %d trials (rejected %d)", len(c.DegreeTrials), c.Rejected)
	}
	f8 := Fig8(c)
	if f8.OverallCM <= 0 || f8.OverallCM > 25 {
		t.Fatalf("overall localization %.1f cm implausible", f8.OverallCM)
	}
	f9 := Fig9(c)
	if f9.OverallDeg <= 0 || f9.OverallDeg > 45 {
		t.Fatalf("overall orientation %.1f deg implausible", f9.OverallDeg)
	}
	if !strings.Contains(f8.String(), "Fig. 8") || !strings.Contains(f9.String(), "Fig. 9") {
		t.Error("renderers missing titles")
	}
}

func TestSmallMatCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("campaign too slow for -short")
	}
	spec := MatSpec{FixedTrials: 6, MovedTrials0: 8, MovedTrials90: 4}
	c, err := RunMatCampaign(Config{Seed: 10, CalWindows: 2}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Materials) != 8 {
		t.Fatalf("%d materials", len(c.Materials))
	}
	f10, err := RunFig10And11(c)
	if err != nil {
		t.Fatal(err)
	}
	// With tiny training sets the accuracy is depressed, but it must
	// beat chance (12.5%) by a wide margin.
	if f10.OverallAcc < 0.4 {
		t.Fatalf("material accuracy %.2f barely above chance", f10.OverallAcc)
	}
	f13, err := RunFig13(c)
	if err != nil {
		t.Fatal(err)
	}
	if f13.TreeAcc < 0.4 {
		t.Fatalf("tree accuracy %.2f", f13.TreeAcc)
	}
	if !strings.Contains(f13.String(), "DecisionTree") {
		t.Error("Fig. 13 renderer broken")
	}
}

func TestSubsampleChannels(t *testing.T) {
	s, err := NewSetup(Config{Seed: 11, CalWindows: 1})
	if err != nil {
		t.Fatal(err)
	}
	none, err := rf.MaterialByName("none")
	if err != nil {
		t.Fatal(err)
	}
	win := s.Window(geom.Vec3{X: 1, Y: 1.2}, 0, none)
	sub := subsampleChannels(win, 10)
	seen := map[int]bool{}
	for _, r := range sub {
		seen[r.Channel] = true
	}
	if len(seen) < 9 || len(seen) > 12 {
		t.Fatalf("subsampled to %d channels, want ≈10", len(seen))
	}
	if got := subsampleChannels(win, 0); len(got) != len(win) {
		t.Error("n=0 must be a no-op")
	}
}

func TestStudy3DRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("3D solve too slow for -short")
	}
	r, err := RunStudy3D(Config{Seed: 12, CalWindows: 2}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if r.PosCM.N+r.Rejected != 4 {
		t.Fatalf("trials unaccounted: %d + %d != 4", r.PosCM.N, r.Rejected)
	}
	if r.PosCM.N > 0 && r.PosCM.Mean > 30 {
		t.Fatalf("3D position error %.1f cm implausible", r.PosCM.Mean)
	}
	if !strings.Contains(r.String(), "3D extension study") {
		t.Error("renderer broken")
	}
}

func TestAblationsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation sweep too slow for -short")
	}
	// A minimal ablation pass: every variant must produce results and
	// the slope-only variant must not beat the full system.
	r, err := RunAblations(Config{Seed: 13, CalWindows: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Variants) != 5 {
		t.Fatalf("%d variants", len(r.Variants))
	}
	byName := map[string]AblationResult{}
	for _, v := range r.Variants {
		byName[v.Name] = v
		if v.LocCM.N == 0 {
			t.Fatalf("variant %q produced no trials", v.Name)
		}
	}
	// Cross-variant ordering needs large campaigns (each variant runs
	// its own seed); at reps=1 we only assert sanity per variant.
	for name, v := range byName {
		if v.LocCM.Mean > 40 || v.OrientDeg.Mean > 50 {
			t.Fatalf("variant %q implausible: %.1f cm / %.1f°", name, v.LocCM.Mean, v.OrientDeg.Mean)
		}
	}
	if !strings.Contains(r.String(), "full system") {
		t.Error("renderer broken")
	}
}
