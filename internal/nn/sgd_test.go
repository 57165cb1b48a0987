package nn

// sgd is plain gradient descent, the tests' second Optimizer: an absurd
// learning rate makes training diverge on demand and a tiny one isolates a
// single clipped step, neither of which Adam's normalized update can do.
type sgd struct{ lr float64 }

func (s *sgd) SetLR(lr float64) { s.lr = lr }
func (s *sgd) LR() float64      { return s.lr }

func (s *sgd) Step(params []Param) {
	for _, p := range params {
		for i := range p.Value.Data {
			p.Value.Data[i] -= s.lr * p.Grad.Data[i]
		}
		p.Grad.Zero()
	}
}
