package mathx

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a linear system has no unique solution.
var ErrSingular = errors.New("mathx: singular matrix")

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat allocates a zero-valued rows×cols matrix.
func NewMat(rows, cols int) *Mat {
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// MatFromRows builds a matrix from row slices. All rows must have the
// same length; the data is copied.
func MatFromRows(rows [][]float64) (*Mat, error) {
	if len(rows) == 0 {
		return &Mat{}, nil
	}
	cols := len(rows[0])
	m := NewMat(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("mathx: row %d has %d columns, want %d", i, len(r), cols)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j).
func (m *Mat) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of m.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// T returns the transpose of m as a new matrix.
func (m *Mat) T() *Mat {
	out := NewMat(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// Mul returns the matrix product m·other.
func (m *Mat) Mul(other *Mat) (*Mat, error) {
	if m.Cols != other.Rows {
		return nil, fmt.Errorf("mathx: dimension mismatch %dx%d · %dx%d", m.Rows, m.Cols, other.Rows, other.Cols)
	}
	out := NewMat(m.Rows, other.Cols)
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			a := m.At(i, k)
			if a == 0 {
				continue
			}
			for j := 0; j < other.Cols; j++ {
				out.Add(i, j, a*other.At(k, j))
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m·x.
func (m *Mat) MulVec(x []float64) ([]float64, error) {
	if m.Cols != len(x) {
		return nil, fmt.Errorf("mathx: dimension mismatch %dx%d · %d", m.Rows, m.Cols, len(x))
	}
	out := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var s float64
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			s += a * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// SolveLU solves a·x = b by Gaussian elimination with partial pivoting.
// a must be square; a and b are not modified.
func SolveLU(a *Mat, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("mathx: SolveLU needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("mathx: SolveLU rhs length %d, want %d", len(b), n)
	}
	// Augmented working copy.
	w := a.Clone()
	x := make([]float64, n)
	copy(x, b)

	for col := 0; col < n; col++ {
		// Partial pivot.
		pivot := col
		best := math.Abs(w.At(col, col))
		for r := col + 1; r < n; r++ {
			if v := math.Abs(w.At(r, col)); v > best {
				best, pivot = v, r
			}
		}
		if best < 1e-14 {
			return nil, ErrSingular
		}
		if pivot != col {
			for j := 0; j < n; j++ {
				wp, wc := w.At(pivot, j), w.At(col, j)
				w.Set(pivot, j, wc)
				w.Set(col, j, wp)
			}
			x[pivot], x[col] = x[col], x[pivot]
		}
		inv := 1 / w.At(col, col)
		for r := col + 1; r < n; r++ {
			f := w.At(r, col) * inv
			if f == 0 {
				continue
			}
			for j := col; j < n; j++ {
				w.Add(r, j, -f*w.At(col, j))
			}
			x[r] -= f * x[col]
		}
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= w.At(i, j) * x[j]
		}
		x[i] = s / w.At(i, i)
	}
	return x, nil
}

// SolveCholesky solves a·x = b for a symmetric positive-definite a.
// It is roughly twice as fast as SolveLU.
func SolveCholesky(a *Mat, b []float64) ([]float64, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("mathx: SolveCholesky needs a square matrix, got %dx%d", a.Rows, a.Cols)
	}
	if len(b) != n {
		return nil, fmt.Errorf("mathx: SolveCholesky rhs length %d, want %d", len(b), n)
	}
	buf := make([]float64, n*n+n)
	l, x := buf[:n*n], buf[n*n:]
	copy(l, a.Data)
	if !choleskyFactor(l, n) {
		return nil, ErrSingular
	}
	choleskySolve(l, n, b, x)
	return x, nil
}

// choleskyFactor overwrites the lower triangle of the row-major n×n
// symmetric matrix a with its Cholesky factor L (a = L·Lᵀ); the upper
// triangle is left as it was. It reports false when a is not positive
// definite.
func choleskyFactor(a []float64, n int) bool {
	for i := 0; i < n; i++ {
		for j := 0; j <= i; j++ {
			s := a[i*n+j]
			for k := 0; k < j; k++ {
				s -= a[i*n+k] * a[j*n+k]
			}
			if i == j {
				if s <= 0 {
					return false
				}
				a[i*n+i] = math.Sqrt(s)
			} else {
				a[i*n+j] = s / a[j*n+j]
			}
		}
	}
	return true
}

// choleskySolve solves L·Lᵀ·x = b given the factor from choleskyFactor.
// x may alias b.
func choleskySolve(l []float64, n int, b, x []float64) {
	// Forward solve L·y = b, y stored in x.
	for i := 0; i < n; i++ {
		s := b[i]
		for k := 0; k < i; k++ {
			s -= l[i*n+k] * x[k]
		}
		x[i] = s / l[i*n+i]
	}
	// Back solve Lᵀ·x = y.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for k := i + 1; k < n; k++ {
			s -= l[k*n+i] * x[k]
		}
		x[i] = s / l[i*n+i]
	}
}

// LeastSquares solves the overdetermined system a·x ≈ b in the
// least-squares sense via the normal equations with a tiny Tikhonov
// ridge for numerical safety. It returns the solution and the residual
// sum of squares.
func LeastSquares(a *Mat, b []float64) (x []float64, rss float64, err error) {
	if a.Rows < a.Cols {
		return nil, 0, fmt.Errorf("mathx: LeastSquares underdetermined %dx%d", a.Rows, a.Cols)
	}
	if len(b) != a.Rows {
		return nil, 0, fmt.Errorf("mathx: LeastSquares rhs length %d, want %d", len(b), a.Rows)
	}
	at := a.T()
	ata, err := at.Mul(a)
	if err != nil {
		return nil, 0, err
	}
	atb, err := at.MulVec(b)
	if err != nil {
		return nil, 0, err
	}
	// Scale-aware ridge keeps Cholesky stable without biasing results.
	var trace float64
	for i := 0; i < ata.Rows; i++ {
		trace += ata.At(i, i)
	}
	ridge := 1e-12 * trace / float64(ata.Rows)
	for i := 0; i < ata.Rows; i++ {
		ata.Add(i, i, ridge)
	}
	x, err = SolveCholesky(ata, atb)
	if err != nil {
		return nil, 0, err
	}
	pred, err := a.MulVec(x)
	if err != nil {
		return nil, 0, err
	}
	for i, p := range pred {
		d := b[i] - p
		rss += d * d
	}
	return x, rss, nil
}
