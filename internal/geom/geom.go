// Package geom provides the small amount of 2D/3D vector geometry that
// RF-Prism's antenna frames, propagation distances and region
// bucketing need.
package geom

import "math"

// Vec2 is a 2D point or direction.
type Vec2 struct {
	X, Y float64
}

// Add returns v + o.
func (v Vec2) Add(o Vec2) Vec2 { return Vec2{v.X + o.X, v.Y + o.Y} }

// Sub returns v − o.
func (v Vec2) Sub(o Vec2) Vec2 { return Vec2{v.X - o.X, v.Y - o.Y} }

// Scale returns v scaled by s.
func (v Vec2) Scale(s float64) Vec2 { return Vec2{v.X * s, v.Y * s} }

// Dot returns the dot product v·o.
func (v Vec2) Dot(o Vec2) float64 { return v.X*o.X + v.Y*o.Y }

// Norm returns the Euclidean length of v.
func (v Vec2) Norm() float64 { return math.Hypot(v.X, v.Y) }

// Dist returns the Euclidean distance between v and o.
func (v Vec2) Dist(o Vec2) float64 { return v.Sub(o).Norm() }

// Unit returns v normalized to length 1; the zero vector is returned
// unchanged.
func (v Vec2) Unit() Vec2 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// Angle returns the polar angle of v in radians.
func (v Vec2) Angle() float64 { return math.Atan2(v.Y, v.X) }

// FromAngle returns the unit vector at the given polar angle.
func FromAngle(rad float64) Vec2 {
	return Vec2{math.Cos(rad), math.Sin(rad)}
}

// Vec3 is a 3D point or direction.
type Vec3 struct {
	X, Y, Z float64
}

// Add returns v + o.
func (v Vec3) Add(o Vec3) Vec3 { return Vec3{v.X + o.X, v.Y + o.Y, v.Z + o.Z} }

// Sub returns v − o.
func (v Vec3) Sub(o Vec3) Vec3 { return Vec3{v.X - o.X, v.Y - o.Y, v.Z - o.Z} }

// Scale returns v scaled by s.
func (v Vec3) Scale(s float64) Vec3 { return Vec3{v.X * s, v.Y * s, v.Z * s} }

// Dot returns the dot product v·o.
func (v Vec3) Dot(o Vec3) float64 { return v.X*o.X + v.Y*o.Y + v.Z*o.Z }

// Cross returns the cross product v×o.
func (v Vec3) Cross(o Vec3) Vec3 {
	return Vec3{
		v.Y*o.Z - v.Z*o.Y,
		v.Z*o.X - v.X*o.Z,
		v.X*o.Y - v.Y*o.X,
	}
}

// Norm returns the Euclidean length of v.
func (v Vec3) Norm() float64 { return math.Sqrt(v.Dot(v)) }

// Dist returns the Euclidean distance between v and o.
func (v Vec3) Dist(o Vec3) float64 { return v.Sub(o).Norm() }

// Unit returns v normalized to length 1; the zero vector is returned
// unchanged.
func (v Vec3) Unit() Vec3 {
	n := v.Norm()
	if n == 0 {
		return v
	}
	return v.Scale(1 / n)
}

// FromSpherical returns the unit vector with azimuth φ (from +X toward
// +Y) and elevation θ (from the XY plane toward +Z), both in radians.
func FromSpherical(azimuth, elevation float64) Vec3 {
	se, ce := math.Sincos(elevation)
	sa, ca := math.Sincos(azimuth)
	return Vec3{X: ce * ca, Y: ce * sa, Z: se}
}

// Spherical returns the azimuth and elevation of v (assumed nonzero).
func (v Vec3) Spherical() (azimuth, elevation float64) {
	azimuth = math.Atan2(v.Y, v.X)
	elevation = math.Atan2(v.Z, math.Hypot(v.X, v.Y))
	return azimuth, elevation
}

// Frame is the orthonormal (U, V) polarization basis of a
// circularly-polarized reader antenna: U is the antenna's horizontal
// unit vector and V its vertical unit vector, both orthogonal to the
// boresight direction W.
type Frame struct {
	U, V, W Vec3
}

// NewFrame builds an antenna frame from a boresight direction. The
// horizontal axis U is chosen in the ground plane (perpendicular to
// both boresight and global +Z) and V completes the right-handed set.
// For a vertical boresight the frame falls back to the X axis for U.
func NewFrame(boresight Vec3) Frame {
	w := boresight.Unit()
	up := Vec3{0, 0, 1}
	u := up.Cross(w)
	if u.Norm() < 1e-9 {
		u = Vec3{1, 0, 0}
	}
	u = u.Unit()
	v := w.Cross(u).Unit()
	return Frame{U: u, V: v, W: w}
}

// Region buckets a tag position by its mean distance to the antennas,
// mirroring the paper's near / medium / far partition of the 2 m × 2 m
// working area.
type Region int

// Region values. Start at 1 so the zero value is invalid.
const (
	RegionNear Region = iota + 1
	RegionMedium
	RegionFar
)

// String implements fmt.Stringer.
func (r Region) String() string {
	switch r {
	case RegionNear:
		return "near"
	case RegionMedium:
		return "medium"
	case RegionFar:
		return "far"
	default:
		return "unknown"
	}
}

// ClassifyRegion returns the region of a point given the mean
// tag-antenna distance and the near/far thresholds in meters.
func ClassifyRegion(meanDist, nearMax, mediumMax float64) Region {
	switch {
	case meanDist <= nearMax:
		return RegionNear
	case meanDist <= mediumMax:
		return RegionMedium
	default:
		return RegionFar
	}
}
