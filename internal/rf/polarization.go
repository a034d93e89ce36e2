package rf

import (
	"math"

	"rfprism/internal/geom"
)

// OrientationPhase returns θorient for a signal propagating from a
// circularly-polarized reader antenna with polarization frame (U, V)
// to a linearly-polarized tag whose polarization vector is w
// (Eq. (4) of the paper):
//
//	tan(θorient) = 2(u·w)(v·w) / ((u·w)² − (v·w)²)
//
// Geometrically this is the angle-doubling of a CP→LP link: if w
// projects onto the antenna's polarization plane at angle φ from U,
// θorient = 2φ. The result is wrapped into [0, 2π). θorient does not
// depend on frequency.
func OrientationPhase(frame geom.Frame, w geom.Vec3) float64 {
	a := frame.U.Dot(w)
	b := frame.V.Dot(w)
	if a == 0 && b == 0 {
		// w is aligned with the boresight: the projection is
		// degenerate and the polarization phase is undefined; by
		// convention return 0 (the link would also be unreadable).
		return 0
	}
	theta := math.Atan2(2*a*b, a*a-b*b)
	if theta < 0 {
		theta += 2 * math.Pi
	}
	return theta
}

// PolarizationLossDB returns the additional link loss (dB) caused by
// the misalignment between the tag's polarization vector and the
// antenna's polarization plane. A CP→LP link loses a constant 3 dB
// regardless of in-plane rotation, plus the projection loss when the
// tag vector leans out of the plane toward the boresight.
func PolarizationLossDB(frame geom.Frame, w geom.Vec3) float64 {
	a := frame.U.Dot(w)
	b := frame.V.Dot(w)
	inPlane := math.Hypot(a, b) / math.Max(w.Norm(), 1e-12)
	if inPlane < 1e-6 {
		inPlane = 1e-6
	}
	return 3 - 20*math.Log10(inPlane)
}

// TagPolarization2D returns the 3D polarization vector of a tag lying
// in the XY working plane with in-plane rotation alpha (radians).
func TagPolarization2D(alpha float64) geom.Vec3 {
	s, c := math.Sincos(alpha)
	return geom.Vec3{X: c, Y: s, Z: 0}
}

// TagPolarization3D returns the polarization vector for a tag oriented
// with the given azimuth and elevation angles (radians).
func TagPolarization3D(azimuth, elevation float64) geom.Vec3 {
	return geom.FromSpherical(azimuth, elevation)
}
