package sim

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"rfprism/internal/mathx"
)

// Fault injection.
//
// Real deployments are hostile in ways the clean reader model of
// Config does not cover: antennas die or lose their feed cable,
// regulatory masks or persistent interferers blacklist channels,
// readers drop long bursts of reports when their event queue
// overflows, external transmitters spike individual phases, people
// and carts walking through the region open deep fades, and the
// reader itself occasionally restarts mid-inventory. FaultInjector
// layers exactly those failure modes on top of a Scene, from its own
// seeded RNG stream, so a fault campaign is as reproducible as a
// clean one and the clean Scene output is untouched.

// FaultConfig enumerates the injectable failure modes. The zero value
// injects nothing: an injector with a zero config is a transparent
// wrapper whose output is byte-identical to the unwrapped scene.
type FaultConfig struct {
	// DeadAntennas lists antenna IDs that are silent in every window
	// (failed port, cut feed cable).
	DeadAntennas []int
	// AntennaDropoutProb is the per-window probability that each
	// antenna is silent for that whole window (loose connector,
	// mux glitch).
	AntennaDropoutProb float64
	// ChannelBlacklist lists channels removed from every window
	// (regulatory mask, persistent interferer).
	ChannelBlacklist []int
	// BurstLossProb is the per-reading probability of entering a loss
	// burst; once entered, consecutive readings are dropped with mean
	// burst length MeanBurstLen (Gilbert–Elliott loss).
	BurstLossProb float64
	// MeanBurstLen is the mean number of consecutive readings lost
	// per burst. Default 20.
	MeanBurstLen float64
	// PhaseSpikeProb is the per-reading probability that the reported
	// phase is replaced by a uniform random value (external RF spike
	// that slipped past the reader's CRC).
	PhaseSpikeProb float64
	// ChannelFadeProb is the per-window per-channel probability of a
	// deep fade: the channel's RSSI drops by FadeDepthDB and its
	// phase picks up noise of std FadePhaseStd (destructive multipath
	// corrupts phase exactly where it depresses amplitude, §V-D).
	ChannelFadeProb float64
	// FadeDepthDB is the RSSI depression of a faded channel. Default 12.
	FadeDepthDB float64
	// FadePhaseStd is the extra phase noise (rad) on a faded channel.
	// Default 0.6.
	FadePhaseStd float64
	// ReaderRestartProb is the per-window probability that the reader
	// restarts once at a uniform random time inside the window,
	// dropping every reading in the following RestartOutage span.
	ReaderRestartProb float64
	// RestartOutage is the blackout span of a reader restart.
	// Default 2s (one tenth of a 50-channel hop round).
	RestartOutage time.Duration
}

func (c *FaultConfig) defaults() {
	if c.MeanBurstLen <= 0 {
		c.MeanBurstLen = 20
	}
	if c.FadeDepthDB <= 0 {
		c.FadeDepthDB = 12
	}
	if c.FadePhaseStd <= 0 {
		c.FadePhaseStd = 0.6
	}
	if c.RestartOutage <= 0 {
		c.RestartOutage = 2 * time.Second
	}
}

// BurstLossEntryProb returns the per-reading burst-entry probability
// that makes burst loss remove the fraction frac of all readings in
// expectation, given mean burst length meanLen: each surviving
// reading enters a burst with probability p, every burst eats meanLen
// readings, so frac = p·meanLen·(1 − frac).
func BurstLossEntryProb(frac, meanLen float64) float64 {
	if frac <= 0 || frac >= 1 || meanLen <= 0 {
		return 0
	}
	return frac / (meanLen * (1 - frac))
}

// FaultStats counts the faults an injector has materialized, summed
// over all windows it has processed.
type FaultStats struct {
	// Windows is the number of windows run through the injector.
	Windows int
	// SilencedAntennaWindows counts (window, antenna) pairs silenced
	// by death or dropout.
	SilencedAntennaWindows int
	// BlacklistedReadings counts readings removed by the channel
	// blacklist.
	BlacklistedReadings int
	// BurstLostReadings counts readings removed by burst loss.
	BurstLostReadings int
	// SpikedReadings counts readings whose phase was replaced.
	SpikedReadings int
	// FadedReadings counts readings attenuated by a deep fade.
	FadedReadings int
	// RestartLostReadings counts readings removed by reader restarts.
	RestartLostReadings int
	// Restarts counts mid-window reader restarts.
	Restarts int
}

// FaultInjector wraps a Scene and injects the configured faults into
// every collected window. All fault randomness comes from the
// injector's own seeded RNG, independent of the scene RNG, so the
// same (scene seed, fault seed, config) always yields the same
// faulted campaign, and a zero config leaves the scene stream
// untouched.
//
// The injector serializes collection through an internal mutex (the
// scene RNG is not safe for concurrent use), so its Source windows
// can be re-collected from concurrent retry workers.
type FaultInjector struct {
	cfg FaultConfig

	mu    sync.Mutex
	scene *Scene
	rng   *rand.Rand
	stats FaultStats
	dead  map[int]bool
	black map[int]bool
}

// NewFaultInjector wraps scene with the given fault profile. seed
// drives all fault randomness.
func NewFaultInjector(scene *Scene, cfg FaultConfig, seed int64) (*FaultInjector, error) {
	if scene == nil {
		return nil, fmt.Errorf("sim: fault injector needs a scene")
	}
	cfg.defaults()
	rates := map[string]float64{
		"AntennaDropoutProb": cfg.AntennaDropoutProb,
		"BurstLossProb":      cfg.BurstLossProb,
		"PhaseSpikeProb":     cfg.PhaseSpikeProb,
		"ChannelFadeProb":    cfg.ChannelFadeProb,
		"ReaderRestartProb":  cfg.ReaderRestartProb,
	}
	for name, p := range rates {
		if p < 0 || p > 1 || math.IsNaN(p) {
			return nil, fmt.Errorf("sim: %s = %v out of [0, 1]", name, p)
		}
	}
	fi := &FaultInjector{
		cfg:   cfg,
		scene: scene,
		rng:   rand.New(rand.NewSource(seed)),
		dead:  make(map[int]bool, len(cfg.DeadAntennas)),
		black: make(map[int]bool, len(cfg.ChannelBlacklist)),
	}
	for _, id := range cfg.DeadAntennas {
		fi.dead[id] = true
	}
	for _, ch := range cfg.ChannelBlacklist {
		fi.black[ch] = true
	}
	return fi, nil
}

// Scene returns the wrapped scene.
func (fi *FaultInjector) Scene() *Scene { return fi.scene }

// Stats returns a snapshot of the accumulated fault counters.
func (fi *FaultInjector) Stats() FaultStats {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.stats
}

// CollectWindow collects one single-tag hop round from the wrapped
// scene and injects the configured faults.
func (fi *FaultInjector) CollectWindow(tag Tag, motion Motion) []Reading {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.injectLocked(fi.scene.CollectWindow(tag, motion))
}

// CollectInventoryWindow collects one multi-tag hop round from the
// wrapped scene and injects the configured faults.
func (fi *FaultInjector) CollectInventoryWindow(tags []TrackedTag) ([]Reading, error) {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	readings, err := fi.scene.CollectInventoryWindow(tags)
	if err != nil {
		return nil, err
	}
	return fi.injectLocked(readings), nil
}

// Source returns a re-collection callback for one tracked target:
// each call collects a fresh window through the injector. It is safe
// to call from concurrent workers (collection is serialized), which
// is exactly what a retrying stream consumer needs.
func (fi *FaultInjector) Source(tag Tag, motion Motion) func() ([]Reading, error) {
	return func() ([]Reading, error) {
		return fi.CollectWindow(tag, motion), nil
	}
}

// Inject applies one window's worth of faults to readings and returns
// the surviving (possibly mutated) copies. The input slice is not
// modified. Faults draw from the injector RNG in a fixed order —
// window-level decisions (dropouts, fades, restart) first, then one
// sequential pass over the readings — so equal seeds and configs
// yield equal faults.
func (fi *FaultInjector) Inject(readings []Reading) []Reading {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.injectLocked(readings)
}

func (fi *FaultInjector) injectLocked(readings []Reading) []Reading {
	fi.stats.Windows++

	// Window-level draws happen unconditionally and in a fixed order,
	// keyed to the deployed antenna list rather than to the readings,
	// so the RNG consumption per window is independent of how many
	// readings earlier faults removed.
	silenced := make(map[int]bool, len(fi.dead))
	for _, ant := range fi.scene.Antennas {
		drop := fi.dead[ant.ID]
		if fi.cfg.AntennaDropoutProb > 0 && fi.rng.Float64() < fi.cfg.AntennaDropoutProb {
			drop = true
		}
		if drop {
			silenced[ant.ID] = true
			fi.stats.SilencedAntennaWindows++
		}
	}

	var faded map[int]bool
	if fi.cfg.ChannelFadeProb > 0 {
		faded = make(map[int]bool)
		chs := fi.windowChannels(readings)
		for _, ch := range chs {
			if fi.rng.Float64() < fi.cfg.ChannelFadeProb {
				faded[ch] = true
			}
		}
	}

	restartStart, restartEnd := time.Duration(-1), time.Duration(-1)
	if fi.cfg.ReaderRestartProb > 0 && fi.rng.Float64() < fi.cfg.ReaderRestartProb {
		span := fi.windowSpan(readings)
		restartStart = time.Duration(fi.rng.Float64() * float64(span))
		restartEnd = restartStart + fi.cfg.RestartOutage
		fi.stats.Restarts++
	}

	// Per-reading pass: burst-loss state machine plus independent
	// spike/fade/blacklist/restart decisions, in reading order.
	out := make([]Reading, 0, len(readings))
	burstLeft := 0
	for _, rd := range readings {
		if burstLeft > 0 {
			burstLeft--
			fi.stats.BurstLostReadings++
			continue
		}
		if fi.cfg.BurstLossProb > 0 && fi.rng.Float64() < fi.cfg.BurstLossProb {
			// Geometric burst length with the configured mean; this
			// reading is the first casualty.
			burstLeft = fi.geometricBurst() - 1
			fi.stats.BurstLostReadings++
			continue
		}
		if silenced[rd.Antenna] {
			continue
		}
		if fi.black[rd.Channel] {
			fi.stats.BlacklistedReadings++
			continue
		}
		if restartStart >= 0 && rd.T >= restartStart && rd.T < restartEnd {
			fi.stats.RestartLostReadings++
			continue
		}
		if fi.cfg.PhaseSpikeProb > 0 && fi.rng.Float64() < fi.cfg.PhaseSpikeProb {
			rd.Phase = fi.rng.Float64() * 2 * math.Pi
			fi.stats.SpikedReadings++
		}
		if faded[rd.Channel] {
			rd.RSSI -= fi.cfg.FadeDepthDB
			p := mathx.Mod(rd.Phase+fi.rng.NormFloat64()*fi.cfg.FadePhaseStd, 2*math.Pi)
			if p < 0 {
				p += 2 * math.Pi
			}
			rd.Phase = p
			fi.stats.FadedReadings++
		}
		out = append(out, rd)
	}
	return out
}

// geometricBurst draws a geometric burst length with mean MeanBurstLen
// (support ≥ 1).
func (fi *FaultInjector) geometricBurst() int {
	p := 1 / fi.cfg.MeanBurstLen
	if p >= 1 {
		return 1
	}
	// Inverse-CDF sampling keeps the draw to a single uniform.
	u := fi.rng.Float64()
	n := int(math.Ceil(math.Log(1-u) / math.Log(1-p)))
	if n < 1 {
		n = 1
	}
	return n
}

// windowChannels returns the sorted distinct channels present in the
// window (sorted so the per-channel fade draws are order-stable).
func (fi *FaultInjector) windowChannels(readings []Reading) []int {
	seen := make(map[int]bool)
	for _, rd := range readings {
		seen[rd.Channel] = true
	}
	chs := make([]int, 0, len(seen))
	for ch := range seen {
		chs = append(chs, ch)
	}
	sort.Ints(chs)
	return chs
}

// windowSpan returns the window's maximum reading timestamp (the hop
// round duration as observed from the readings themselves).
func (fi *FaultInjector) windowSpan(readings []Reading) time.Duration {
	var span time.Duration
	for _, rd := range readings {
		if rd.T > span {
			span = rd.T
		}
	}
	if span <= 0 {
		span = time.Second
	}
	return span
}
