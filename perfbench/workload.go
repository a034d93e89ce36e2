package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"rfprism/internal/geom"
	"rfprism/internal/rf"
	"rfprism/internal/sim"
)

// Workload inputs.
//
// Every workload is a pure function of (name, seed, size): the seed
// picks a stream seed (seeds.go) that draws tag poses, tag hardware
// diversity and measurement noise; the size is a whole number of
// rounds fixed before the run starts, so two runs with the same
// arguments post byte-identical streams (the run prints their digest)
// and expect the same windows. Nothing of the stack under test runs
// while a stream is generated.

const (
	// deploySeed is the deployment seed of every shard System (antenna
	// geometry, hardware offsets, calibration), the default of
	// rfprism-router -seed. The generator reads through the same
	// antennas, so the shards and the stream agree on the hardware.
	deploySeed = 1
	// coverageClose and minAntennas are the sessionizer settings the
	// stack runs with (rfprism-router -local defaults).
	coverageClose = 45
	minAntennas   = 3

	// portalGroup tags pass the portal together and share the reader's
	// 16-slot dwell budget round-robin: 3 slots per tag per dwell.
	// (An odd count: with 4–6 reads per dwell the preprocessor's
	// π-branch vote misfires and the error detector rejects windows.)
	portalGroup = 5
	portalSlots = 3
	// shelfTags tags are read round after round, each with a dense
	// single-reader hop round; shelfMoved of them are picked and placed
	// a few cm between rounds.
	shelfTags  = 24
	shelfMoved = 4
	// dashboardTags tags are on the watched floor: dashboardHopping of
	// them jump to a fresh pose every round, the rest stay put. Each is
	// read at the portal's per-tag rate.
	dashboardTags    = 20
	dashboardHopping = 16
	dashboardSlots   = portalSlots
)

// pose is the ground truth of one tag during one window.
type pose struct {
	X, Y  float64 // m
	Alpha float64 // rad, polarization angle
}

// workload is one generated input: a warm-up stream posted before the
// timed phase and the timed stream itself, plus the truth behind every
// reading.
type workload struct {
	name       string
	streamSeed int64
	// readings is warm-up then timed, in posting order; timedFrom is
	// the index of the first timed reading.
	readings  []sim.Reading
	timedFrom int
	// truth[i] is the pose behind readings[i].
	truth []pose
	// rounds is the number of timed rounds; windowsPerRound the
	// coverage windows each carries. roundStart[r] is the index of the
	// first reading of round r (round 0 is the warm-up).
	rounds          int
	roundStart      []int
	windowsPerRound int
	// redraws counts portal tags drawn again because their stream did
	// not give exactly one coverage window and one solver-bound tail.
	redraws int
	// openLoop workloads post on a fixed schedule of chunkLines-line
	// chunks every chunkEvery. Closed-loop ones post one round back to
	// back and wait for its results before posting the next.
	openLoop   bool
	chunkLines int
	chunkEvery time.Duration
	// readEvery is the number of posts between two GET /v1/tags/{epc}
	// reads (open loop: reads per post interval instead).
	readEvery int
	// confidence runs the likelihood layer on every shard.
	confidence bool
	// hopping holds the EPCs whose every window is at a fresh pose, so
	// each is an independent solve (dashboard).
	hopping map[string]bool
}

// sizes fixes each workload's timed rounds for a run of the given
// length, from a nominal rate on a 2-core host; the rate only sizes
// the work, it is never compared against anything.
func timedRounds(name string, seconds float64) int {
	var perSecond float64
	switch name {
	case "portal":
		perSecond = 40.0 / portalGroup // coverage windows/s ÷ windows per round
	case "shelf":
		perSecond = 40.0 / shelfTags
	case "dashboard":
		perSecond = 1 / dashboardRoundEvery.Seconds()
	}
	n := int(math.Ceil(seconds * perSecond))
	if n < 1 {
		n = 1
	}
	return n
}

// dashboardRoundEvery is the open-loop schedule length of one
// dashboard round; chunks are spread evenly across it.
const dashboardRoundEvery = 800 * time.Millisecond

// newScene returns a generator scene reading through the shards'
// antennas with the given per-dwell read budget per tag.
func newScene(seed int64, slots int) (*sim.Scene, error) {
	hw := rand.New(rand.NewSource(deploySeed))
	cfg := sim.DefaultConfig()
	cfg.ReadsPerDwell = slots
	return sim.NewScene(sim.PaperAntennas2D(hw), rf.CleanSpace(), cfg, seed)
}

// randomPose draws a pose uniformly over the paper's working region,
// kept margin m inside its edges.
func randomPose(rng *rand.Rand, m float64) pose {
	r := sim.PaperRegion()
	return pose{
		X:     r.XMin + m + rng.Float64()*(r.XMax-r.XMin-2*m),
		Y:     r.YMin + m + rng.Float64()*(r.YMax-r.YMin-2*m),
		Alpha: rng.Float64() * math.Pi,
	}
}

// tagRound reads one tag at pose p for one hop round and cuts the
// stream where the tag stops being read: after the report that
// completes channel coverage (cutAtCoverage), or at the end of the
// dwell holding that report (the portal, where the tag then leaves).
// ok is false when the round never reaches coverage.
func tagRound(sc *sim.Scene, tag sim.Tag, p pose, none rf.Material, cutAtCoverage bool) ([]sim.Reading, bool) {
	rds := sc.CollectWindow(tag, sc.Place(geom.Vec3{X: p.X, Y: p.Y}, p.Alpha, none))
	var seen uint64
	for i, rd := range rds {
		seen |= 1 << uint(rd.Channel)
		if popcount(seen) < coverageClose {
			continue
		}
		if cutAtCoverage {
			return rds[:i+1], true
		}
		j := i + 1
		for j < len(rds) && rds[j].Channel == rd.Channel {
			j++
		}
		return rds[:j], true
	}
	return nil, false
}

// interleave merges per-tag round streams into one reader stream in
// time order (ties keep tag order), appending to out and truth.
func interleave(out []sim.Reading, truth []pose, streams [][]sim.Reading, poses []pose, offset time.Duration) ([]sim.Reading, []pose) {
	type item struct {
		rd  sim.Reading
		tag int
	}
	var all []item
	for t, s := range streams {
		for _, rd := range s {
			all = append(all, item{rd, t})
		}
	}
	sort.SliceStable(all, func(a, b int) bool { return all[a].rd.T < all[b].rd.T })
	for _, it := range all {
		it.rd.T += offset
		out = append(out, it.rd)
		truth = append(truth, poses[it.tag])
	}
	return out, truth
}

// generate builds the named workload for the benchmark seed with the
// given number of timed rounds, from the stream seed the seed picks,
// and refuses a stream whose warm-up round differs from the one the
// table pins.
func generate(name string, seed int64, rounds int) (*workload, error) {
	ss, err := pickStreamSeed(name, seed)
	if err != nil {
		return nil, err
	}
	w, err := generateFrom(name, ss.sim, rounds)
	if err != nil {
		return nil, err
	}
	if d, err := warmDigest(w); err != nil {
		return nil, err
	} else if d != ss.warmDigest {
		return nil, fmt.Errorf("%s stream seed %d: warm-up round digest %s, the seed table pins %s; "+
			"the simulator's output changed, so the table must be screened again (seeds_test.go)", name, ss.sim, d, ss.warmDigest)
	}
	w.streamSeed = ss.sim
	return w, nil
}

// generateFrom builds the named workload from a stream seed.
func generateFrom(name string, seed int64, rounds int) (*workload, error) {
	none, err := rf.MaterialByName("none")
	if err != nil {
		return nil, err
	}
	var w *workload
	switch name {
	case "portal":
		w, err = genPortal(seed, rounds, none)
	case "shelf":
		w, err = genShelf(seed, rounds, none)
	case "dashboard":
		w, err = genDashboard(seed, rounds, none)
	default:
		return nil, fmt.Errorf("unknown workload %q (portal|shelf|dashboard)", name)
	}
	if err != nil {
		return nil, err
	}
	w.roundStart = append(w.roundStart, len(w.readings))
	w.timedFrom = w.roundStart[1]
	if w.openLoop {
		// Post the reports evenly, dashboardRoundEvery per round's worth,
		// in chunks of one sixteenth of a round.
		perRound := (len(w.readings) - w.timedFrom) / rounds
		w.chunkLines = (perRound + 15) / 16
		w.chunkEvery = dashboardRoundEvery * time.Duration(w.chunkLines) / time.Duration(perRound)
	}
	return w, nil
}

// genPortal: every round a group of portalGroup new tags passes the
// portal, staggered within the round; each tag is read until its window
// closes and leaves at the end of that dwell. Round 0 is the warm-up.
func genPortal(seed int64, rounds int, none rf.Material) (*workload, error) {
	sc, err := newScene(seed, portalSlots)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	w := &workload{name: "portal", rounds: rounds, windowsPerRound: portalGroup, chunkLines: 512, readEvery: 2}
	span := sc.RoundSpan()
	for g := 0; g <= rounds; g++ {
		w.roundStart = append(w.roundStart, len(w.readings))
		streams := make([][]sim.Reading, portalGroup)
		poses := make([]pose, portalGroup)
		for i := range streams {
			epc := fmt.Sprintf("P%05d-%d", g, i)
			for {
				p := randomPose(rng, 0.05)
				rds, ok := tagRound(sc, sc.NewTag(epc), p, none, false)
				if ok && portalShape(rds) {
					streams[i], poses[i] = rds, p
					break
				}
				w.redraws++
			}
		}
		stagger(streams, span)
		w.readings, w.truth = interleave(w.readings, w.truth, streams, poses, time.Duration(2*g)*span)
	}
	return w, nil
}

// portalShape reports whether one portal tag's stream gives exactly
// one coverage window and one tail the stack will hand to the solver
// (the tail fault): the stream is cut at the end of the coverage dwell,
// so what follows the coverage report is the tail. Tags whose tail
// reaches fewer than minAntennas antennas (a read dropped on every
// slot of one antenna) are drawn again, so every run fails the same
// share of windows.
func portalShape(rds []sim.Reading) bool {
	o := newOracle()
	for i := range rds {
		o.feed(i, rds[i].EPC, rds[i].Antenna, rds[i].Channel)
	}
	o.drain()
	return len(o.windows) == 2 && o.windows[0].emitted && !o.windows[0].tail &&
		o.windows[1].emitted && o.windows[1].tail
}

// genShelf: a fixed population read round after round with a dense
// single-reader hop round per tag, staggered within the round; between
// rounds shelfMoved tags are picked and placed 2–5 cm away. Round 0 is
// the warm-up that fills the stationary cache.
func genShelf(seed int64, rounds int, none rf.Material) (*workload, error) {
	sc, err := newScene(seed, sim.DefaultConfig().ReadsPerDwell)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0x5e1f))
	w := &workload{name: "shelf", rounds: rounds, windowsPerRound: shelfTags, chunkLines: 512, readEvery: 4}
	tags := make([]sim.Tag, shelfTags)
	poses := make([]pose, shelfTags)
	for i := range tags {
		tags[i] = sc.NewTag(fmt.Sprintf("S%03d", i))
		poses[i] = randomPose(rng, 0.1)
	}
	span := sc.RoundSpan()
	for r := 0; r <= rounds; r++ {
		w.roundStart = append(w.roundStart, len(w.readings))
		if r > 0 {
			for _, i := range rng.Perm(shelfTags)[:shelfMoved] {
				d := 0.02 + 0.03*rng.Float64()
				a := rng.Float64() * 2 * math.Pi
				poses[i].X += d * math.Cos(a)
				poses[i].Y += d * math.Sin(a)
			}
		}
		streams, err := roundStreams(sc, tags, poses, none)
		if err != nil {
			return nil, err
		}
		stagger(streams, span)
		w.readings, w.truth = interleave(w.readings, w.truth, streams, poses, time.Duration(2*r)*span)
	}
	return w, nil
}

// stagger delays tag i's stream by i/len(streams) of a round, as for
// tags whose hop rounds started at different times: their windows then
// close one after another instead of in one burst.
func stagger(streams [][]sim.Reading, span time.Duration) {
	for i, s := range streams {
		shift := span * time.Duration(i) / time.Duration(len(streams))
		for j := range s {
			s[j].T += shift
		}
	}
}

// genDashboard: a live floor of a stationary minority plus hopping
// tags that jump to a fresh pose every round, posted open loop. Round 0
// is the warm-up that gives every tag a result to read. In the timed
// rounds tag i's hop round starts i/dashboardTags of a round after tag
// 0's, as for tags that entered the field at different times, so
// windows close spread over the round instead of in one burst.
func genDashboard(seed int64, rounds int, none rf.Material) (*workload, error) {
	sc, err := newScene(seed, dashboardSlots)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed ^ 0xda5b))
	w := &workload{name: "dashboard", rounds: rounds, windowsPerRound: dashboardTags, openLoop: true, confidence: true,
		readEvery: 1, hopping: make(map[string]bool)}
	tags := make([]sim.Tag, dashboardTags)
	poses := make([]pose, dashboardTags)
	for i := range tags {
		tags[i] = sc.NewTag(fmt.Sprintf("D%03d", i))
		poses[i] = randomPose(rng, 0.1)
		if i < dashboardHopping {
			w.hopping[tags[i].EPC] = true
		}
	}
	w.roundStart = append(w.roundStart, 0)
	streams, err := roundStreams(sc, tags, poses, none)
	if err != nil {
		return nil, err
	}
	w.readings, w.truth = interleave(w.readings, w.truth, streams, poses, 0)
	w.roundStart = append(w.roundStart, len(w.readings))

	span := sc.RoundSpan()
	var all [][]sim.Reading
	var allPoses []pose
	for r := 1; r <= rounds; r++ {
		for i := 0; i < dashboardHopping; i++ {
			poses[i] = randomPose(rng, 0.1)
		}
		streams, err := roundStreams(sc, tags, poses, none)
		if err != nil {
			return nil, err
		}
		stagger(streams, span)
		for _, s := range streams {
			for j := range s {
				s[j].T += time.Duration(r) * span
			}
		}
		all = append(all, streams...)
		allPoses = append(allPoses, poses...)
	}
	w.readings, w.truth = interleave(w.readings, w.truth, all, allPoses, 0)
	return w, nil
}

// roundStreams reads every tag for one round, each stream ending at
// its coverage report, so windows never straddle rounds.
func roundStreams(sc *sim.Scene, tags []sim.Tag, poses []pose, none rf.Material) ([][]sim.Reading, error) {
	out := make([][]sim.Reading, len(tags))
	for i := range tags {
		rds, err := tagRoundRetry(sc, tags[i], poses[i], none)
		if err != nil {
			return nil, err
		}
		out[i] = rds
	}
	return out, nil
}

// tagRoundRetry reads one tag's round, cut at its coverage report,
// reading again in the (vanishing) case that a round misses coverage.
func tagRoundRetry(sc *sim.Scene, tag sim.Tag, p pose, none rf.Material) ([]sim.Reading, error) {
	for try := 0; try < 100; try++ {
		if rds, ok := tagRound(sc, tag, p, none, true); ok {
			return rds, nil
		}
	}
	return nil, fmt.Errorf("tag %s never reaches coverage", tag.EPC)
}

// warmDigest fingerprints the warm-up round as it is posted.
func warmDigest(w *workload) (string, error) {
	warm, err := encodeChunks(w.readings, 0, w.timedFrom, 512, 0)
	if err != nil {
		return "", err
	}
	return digest(warm), nil
}

// digest fingerprints the posted stream, so runs can be shown to
// replay the same input.
func digest(parts ...[]chunk) string {
	h := sha256.New()
	for _, cs := range parts {
		for _, c := range cs {
			h.Write(c.body)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
