package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Optimizer updates parameters from their accumulated gradients and clears
// the gradients afterwards.
type Optimizer interface {
	// Step applies one update to every parameter and zeroes the gradients.
	Step(params []Param)
	// SetLR changes the learning rate (for schedules); LR returns it.
	SetLR(lr float64)
	LR() float64
}

// Adam is the Adam optimizer (Kingma & Ba 2017), the optimizer both of the
// paper's models use.
type Adam struct {
	LRValue, Beta1, Beta2, Eps float64
	t                          int
	m, v                       map[*tensor.Matrix]*tensor.Matrix
}

// NewAdam returns an Adam optimizer with the canonical defaults
// β1=0.9, β2=0.999, ε=1e-8.
func NewAdam(lr float64) *Adam {
	if lr <= 0 {
		panic(fmt.Sprintf("nn: non-positive learning rate %v", lr))
	}
	return &Adam{
		LRValue: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: map[*tensor.Matrix]*tensor.Matrix{},
		v: map[*tensor.Matrix]*tensor.Matrix{},
	}
}

// SetLR implements Optimizer.
func (a *Adam) SetLR(lr float64) { a.LRValue = lr }

// LR implements Optimizer.
func (a *Adam) LR() float64 { return a.LRValue }

// Step implements Optimizer.
func (a *Adam) Step(params []Param) {
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m := a.m[p.Value]
		if m == nil {
			m = tensor.New(p.Value.Rows, p.Value.Cols)
			a.m[p.Value] = m
		}
		v := a.v[p.Value]
		if v == nil {
			v = tensor.New(p.Value.Rows, p.Value.Cols)
			a.v[p.Value] = v
		}
		for i := range p.Value.Data {
			g := p.Grad.Data[i]
			m.Data[i] = a.Beta1*m.Data[i] + (1-a.Beta1)*g
			v.Data[i] = a.Beta2*v.Data[i] + (1-a.Beta2)*g*g
			mh := m.Data[i] / c1
			vh := v.Data[i] / c2
			p.Value.Data[i] -= a.LRValue * mh / (math.Sqrt(vh) + a.Eps)
		}
		p.Grad.Zero()
	}
}
