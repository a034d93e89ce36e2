// Package rf models the physical layer of a UHF RFID link: the FCC
// channel plan, round-trip propagation phase and RSSI, the
// polarization phase of a circularly-polarized reader antenna reading
// a linearly-polarized tag, the material-dependent tag impedance phase,
// multipath superposition and the reader's measurement imperfections.
//
// It is the substrate that replaces the paper's ImpinJ R420 + Laird
// antenna testbed (see DESIGN.md §2).
package rf

import (
	"fmt"
	"math"

	"rfprism/internal/mathx"
)

const (
	// SpeedOfLight is the propagation speed of EM waves in m/s.
	SpeedOfLight = 2.99792458e8

	// NumChannels is the number of FCC hopping channels used by the
	// ImpinJ R420 in the 902–928 MHz ISM band.
	NumChannels = 50

	// ChannelSpacingHz is the spacing between adjacent channels.
	ChannelSpacingHz = 500e3

	// FirstChannelHz is the center frequency of channel 0.
	FirstChannelHz = 902.75e6

	// CenterFrequencyHz is the band center used by the numerically
	// conditioned "centered intercept" line fit (see DESIGN.md §2).
	CenterFrequencyHz = 915.0e6

	// PhaseQuantum is the reader's phase reporting resolution. The
	// ImpinJ R420 reports phase as a 12-bit angle (2π/4096 rad).
	PhaseQuantum = 2 * math.Pi / 4096

	// RSSIQuantumDB is the reader's RSSI reporting resolution in dB.
	RSSIQuantumDB = 0.5
)

// ChannelFreq returns the center frequency in Hz of channel ch
// (0-based). It panics only through the returned error contract: an
// out-of-range channel yields an error.
func ChannelFreq(ch int) (float64, error) {
	if ch < 0 || ch >= NumChannels {
		return 0, fmt.Errorf("rf: channel %d out of range [0,%d)", ch, NumChannels)
	}
	return FirstChannelHz + float64(ch)*ChannelSpacingHz, nil
}

// channelTable is the memoized channel plan. It is computed once at
// package init; all hot paths read it through ChannelTable.
var channelTable = func() [NumChannels]float64 {
	var out [NumChannels]float64
	for i := range out {
		out[i] = FirstChannelHz + float64(i)*ChannelSpacingHz
	}
	return out
}()

// Channels returns the center frequencies of all hopping channels in
// ascending order. The slice is freshly allocated on every call, so
// callers may mutate it; allocation-sensitive loops should use
// ChannelTable instead.
func Channels() []float64 {
	out := channelTable
	return out[:]
}

// ChannelTable returns the shared channel-frequency table without
// allocating. The returned slice is read-only: callers must not
// modify it (use Channels for a private copy).
func ChannelTable() []float64 {
	return channelTable[:]
}

// Wavelength returns the free-space wavelength at frequency f (Hz).
func Wavelength(f float64) float64 { return SpeedOfLight / f }

// PropagationPhase returns the unwrapped round-trip propagation phase
// θprop = 2π · 2d·f / c for antenna-tag distance d (m) at frequency f
// (Hz) — Eq. (3) of the paper before the mod 2π.
func PropagationPhase(d, f float64) float64 {
	return 4 * math.Pi * d * f / SpeedOfLight
}

// PropagationSlope returns ∂θprop/∂f = 4πd/c, the distance-dependent
// part of the phase-vs-frequency slope k in Eq. (6).
func PropagationSlope(d float64) float64 {
	return 4 * math.Pi * d / SpeedOfLight
}

// DistanceFromSlope inverts PropagationSlope: d = c·k/(4π).
func DistanceFromSlope(k float64) float64 {
	return SpeedOfLight * k / (4 * math.Pi)
}

// QuantizePhase rounds a phase to the reader's reporting resolution
// and wraps it into [0, 2π).
func QuantizePhase(theta float64) float64 {
	q := math.Round(theta/PhaseQuantum) * PhaseQuantum
	q = mathx.Mod(q, 2*math.Pi)
	if q < 0 {
		q += 2 * math.Pi
	}
	return q
}

// QuantizeRSSI rounds an RSSI value (dBm) to the reader's resolution.
func QuantizeRSSI(dbm float64) float64 {
	return math.Round(dbm/RSSIQuantumDB) * RSSIQuantumDB
}

// RSSI returns the received backscatter power in dBm for a round trip
// over distance d with the given extra attenuation (dB) from the
// tagged material. The model is the monostatic radar form of Friis:
// power decays with d⁴, normalized so that d = 1 m reads refDBm.
func RSSI(d, refDBm, materialLossDB float64) float64 {
	if d < 0.05 {
		d = 0.05
	}
	return refDBm - 40*math.Log10(d) - materialLossDB
}

// DistanceFromRSSI inverts RSSI ignoring material loss; this is the
// coarse compensation the Tagtag baseline uses and is intentionally
// biased when material loss is present.
func DistanceFromRSSI(dbm, refDBm float64) float64 {
	return math.Pow(10, (refDBm-dbm)/40)
}
