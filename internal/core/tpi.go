package core

import (
	"context"
	"fmt"
	"math"

	"pipecache/internal/cache"
	"pipecache/internal/cpisim"
	"pipecache/internal/tablefmt"
)

// TPIPoint is one design point of the Section 5 analysis.
type TPIPoint struct {
	B, L             int // branch and load delay slots (pipeline depths)
	ISizeKW, DSizeKW int
	LoadScheme       cpisim.LoadScheme

	TCPUNs    float64
	PenCycles int
	CPI       float64
	TPINs     float64
}

// String summarizes the point.
func (p TPIPoint) String() string {
	return fmt.Sprintf("b=%d l=%d L1-I=%dKW L1-D=%dKW %s-loads: tCPU=%.2fns P=%d CPI=%.3f TPI=%.2fns",
		p.B, p.L, p.ISizeKW, p.DSizeKW, p.LoadScheme, p.TCPUNs, p.PenCycles, p.CPI, p.TPINs)
}

// TPI evaluates one design point: the cycle time comes from the timing
// model (each side pipelined to its own depth, system cycle = max), the
// miss penalty from the constant-time L2 service at that cycle time, and
// CPI from the memoized simulation passes.
func (l *Lab) TPI(b, ld, iSizeKW, dSizeKW int, scheme cpisim.LoadScheme, l2TimeNs float64) (TPIPoint, error) {
	return l.TPIContext(context.Background(), b, ld, iSizeKW, dSizeKW, scheme, l2TimeNs)
}

// TPIContext is TPI with cooperative cancellation: ctx aborts the
// underlying simulation pass (or the wait for a concurrent one).
func (l *Lab) TPIContext(ctx context.Context, b, ld, iSizeKW, dSizeKW int, scheme cpisim.LoadScheme, l2TimeNs float64) (TPIPoint, error) {
	return l.TPIPolicyContext(ctx, b, ld, iSizeKW, dSizeKW, scheme, l2TimeNs, l.P.Policy)
}

// TPIPolicyContext is TPIContext with an explicit replacement policy; the
// serving layer uses it to answer per-request policy overrides against
// the matching memoized pass.
func (l *Lab) TPIPolicyContext(ctx context.Context, b, ld, iSizeKW, dSizeKW int, scheme cpisim.LoadScheme, l2TimeNs float64, pol cache.Policy) (TPIPoint, error) {
	l.obs.Counter("lab.tpi_points").Inc()
	p := TPIPoint{B: b, L: ld, ISizeKW: iSizeKW, DSizeKW: dSizeKW, LoadScheme: scheme}
	tcpu, err := l.P.Model.TCPUSplit(iSizeKW, b, dSizeKW, ld)
	if err != nil {
		return p, err
	}
	p.TCPUNs = tcpu
	p.PenCycles = penaltyCyclesFor(l2TimeNs, tcpu)

	pass, err := l.StaticPassPolicyContext(ctx, b, pol)
	if err != nil {
		return p, err
	}
	iIdx, err := l.sizeIndex(iSizeKW)
	if err != nil {
		return p, err
	}
	dIdx, err := l.sizeIndex(dSizeKW)
	if err != nil {
		return p, err
	}
	cpi, err := pass.CPIFor(ld, scheme, iIdx, dIdx, p.PenCycles, p.PenCycles)
	if err != nil {
		return p, err
	}
	p.CPI = cpi
	p.TPINs = cpi * tcpu
	return p, nil
}

// TPISweep evaluates TPI for symmetric designs (b = l, equal split) over
// the size bank: the curves of Figures 12 and 13.
func (l *Lab) TPISweep(l2TimeNs float64, scheme cpisim.LoadScheme) (*FigureResult, error) {
	return l.TPISweepContext(context.Background(), l2TimeNs, scheme)
}

// TPISweepContext is TPISweep with cooperative cancellation, checked at
// every design point.
func (l *Lab) TPISweepContext(ctx context.Context, l2TimeNs float64, scheme cpisim.LoadScheme) (*FigureResult, error) {
	f := &FigureResult{
		Title:  fmt.Sprintf("TPI vs total L1 size (split equally, b=l, %s loads, %.0fns miss service)", scheme, l2TimeNs),
		XLabel: "total L1 size (KW)",
		YLabel: "TPI (ns)",
	}
	for _, s := range l.P.SizesKW {
		f.X = append(f.X, float64(2*s))
	}
	l.progress.StartPhase("TPI sweep", int64(4*len(l.P.SizesKW)))
	defer l.progress.Finish()
	for depth := 0; depth <= 3; depth++ {
		var ys []float64
		for _, side := range l.P.SizesKW {
			pt, err := l.TPIContext(ctx, depth, depth, side, side, scheme, l2TimeNs)
			if err != nil {
				return nil, err
			}
			ys = append(ys, pt.TPINs)
			l.progress.Step(1)
		}
		f.Labels = append(f.Labels, fmt.Sprintf("b=l=%d", depth))
		f.Y = append(f.Y, ys)
	}
	return f, nil
}

// Figure12 is the TPI sweep at the default (10-cycle-class) miss service.
func (l *Lab) Figure12() (*FigureResult, error) {
	return l.Figure12Context(context.Background())
}

// Figure12Context is Figure12 with cooperative cancellation.
func (l *Lab) Figure12Context(ctx context.Context) (*FigureResult, error) {
	f, err := l.TPISweepContext(ctx, l.P.L2TimeNs, cpisim.LoadStatic)
	if err != nil {
		return nil, err
	}
	f.Title = "Figure 12: " + f.Title
	return f, nil
}

// Figure13 is the TPI sweep at a reduced miss service (the paper's 6-cycle
// penalty: 21 ns at the 3.5 ns cycle).
func (l *Lab) Figure13() (*FigureResult, error) {
	return l.Figure13Context(context.Background())
}

// Figure13Context is Figure13 with cooperative cancellation.
func (l *Lab) Figure13Context(ctx context.Context) (*FigureResult, error) {
	f, err := l.TPISweepContext(ctx, l.P.L2TimeNs*0.6, cpisim.LoadStatic)
	if err != nil {
		return nil, err
	}
	f.Title = "Figure 13: " + f.Title
	return f, nil
}

// Optimum is the best design found by a sweep.
type Optimum struct {
	Best      TPIPoint
	Evaluated int
}

// BestDesign searches all (b, l, I-size, D-size) combinations, optionally
// restricted to symmetric designs (b = l with an equal split), and returns
// the minimum-TPI point.
func (l *Lab) BestDesign(l2TimeNs float64, scheme cpisim.LoadScheme, symmetric bool) (*Optimum, error) {
	return l.BestDesignContext(context.Background(), l2TimeNs, scheme, symmetric)
}

// BestDesignContext is BestDesign with cooperative cancellation, checked at
// every design point. The distinct passes behind the candidates are first
// requested side by side on the lab's bounded worker pool (warmPasses);
// the candidate points are then independent, so they are evaluated on the
// same pool, and the minimum is reduced serially in enumeration order,
// which preserves the serial sweep's earliest-wins tie-break at every
// worker count.
func (l *Lab) BestDesignContext(ctx context.Context, l2TimeNs float64, scheme cpisim.LoadScheme, symmetric bool) (*Optimum, error) {
	return l.BestDesignPolicyContext(ctx, l2TimeNs, scheme, symmetric, l.P.Policy)
}

// BestDesignPolicyContext is BestDesignContext with an explicit
// replacement policy for the cache banks.
func (l *Lab) BestDesignPolicyContext(ctx context.Context, l2TimeNs float64, scheme cpisim.LoadScheme, symmetric bool, pol cache.Policy) (*Optimum, error) {
	type candidate struct {
		b, ld, iSize, dSize int
	}
	var cands []candidate
	for b := 0; b <= 3; b++ {
		for ld := 0; ld <= 3; ld++ {
			if symmetric && ld != b {
				continue
			}
			for _, iSize := range l.P.SizesKW {
				for _, dSize := range l.P.SizesKW {
					if symmetric && iSize != dSize {
						continue
					}
					cands = append(cands, candidate{b, ld, iSize, dSize})
				}
			}
		}
	}
	depths := make([]int, len(cands))
	for i, c := range cands {
		depths[i] = c.b
	}
	if err := l.warmPasses(ctx, staticPassKeys(depths, pol), func() {}); err != nil {
		return nil, err
	}
	l.progress.StartPhase("design-space sweep", int64(len(cands)))
	defer l.progress.Finish()
	pts := make([]TPIPoint, len(cands))
	err := l.forEach(ctx, len(cands), func(ctx context.Context, i int) error {
		c := cands[i]
		pt, err := l.TPIPolicyContext(ctx, c.b, c.ld, c.iSize, c.dSize, scheme, l2TimeNs, pol)
		if err != nil {
			return err
		}
		pts[i] = pt
		l.progress.Step(1)
		return nil
	})
	if err != nil {
		return nil, err
	}
	best := TPIPoint{TPINs: math.Inf(1)}
	for _, pt := range pts {
		if pt.TPINs < best.TPINs {
			best = pt
		}
	}
	return &Optimum{Best: best, Evaluated: len(cands)}, nil
}

// DynamicBreakEven returns how much tCPU could grow (as a fraction) before
// dynamic out-of-order load issue loses to static scheduling at the given
// design point — the paper's ~10% figure.
func (l *Lab) DynamicBreakEven(b, ld, iSizeKW, dSizeKW int, l2TimeNs float64) (float64, error) {
	st, err := l.TPI(b, ld, iSizeKW, dSizeKW, cpisim.LoadStatic, l2TimeNs)
	if err != nil {
		return 0, err
	}
	dy, err := l.TPI(b, ld, iSizeKW, dSizeKW, cpisim.LoadDynamic, l2TimeNs)
	if err != nil {
		return 0, err
	}
	if dy.TPINs <= 0 {
		return 0, fmt.Errorf("core: degenerate dynamic TPI")
	}
	return st.TPINs/dy.TPINs - 1, nil
}

// SummaryTable renders a set of TPI points.
func SummaryTable(title string, pts []TPIPoint) string {
	t := tablefmt.New(title, "b", "l", "L1-I", "L1-D", "loads", "tCPU (ns)", "P (cyc)", "CPI", "TPI (ns)")
	for _, p := range pts {
		t.Row(p.B, p.L,
			fmt.Sprintf("%dKW", p.ISizeKW), fmt.Sprintf("%dKW", p.DSizeKW),
			p.LoadScheme.String(),
			fmt.Sprintf("%.2f", p.TCPUNs), p.PenCycles,
			fmt.Sprintf("%.3f", p.CPI), fmt.Sprintf("%.2f", p.TPINs))
	}
	return t.String()
}

// DepthMatrixResult is the best TPI over the size bank for every (b, l)
// pair. The paper observes that with an equally split L1, "performance is
// maximized when the number of branch delay slots is equal to the number
// of load delay slots": pipelining one side deeper than the other wastes
// CPI without shortening the system cycle.
type DepthMatrixResult struct {
	Depths []int
	// BestTPI[i][j] is the best TPI with b = Depths[i], l = Depths[j].
	BestTPI [][]float64
	// BestSize[i][j] is the per-side size (KW) achieving it.
	BestSize [][]int
}

// DepthMatrix evaluates every (b, l) pair over equally split sizes.
func (l *Lab) DepthMatrix(l2TimeNs float64) (*DepthMatrixResult, error) {
	depths := []int{0, 1, 2, 3}
	l.progress.StartPhase("depth matrix", int64(len(depths)*len(depths)*len(l.P.SizesKW)))
	defer l.progress.Finish()
	res := &DepthMatrixResult{Depths: depths}
	for _, b := range depths {
		rowT := make([]float64, len(depths))
		rowS := make([]int, len(depths))
		for j, ld := range depths {
			best := math.Inf(1)
			bestSize := 0
			for _, side := range l.P.SizesKW {
				pt, err := l.TPI(b, ld, side, side, cpisim.LoadStatic, l2TimeNs)
				if err != nil {
					return nil, err
				}
				l.progress.Step(1)
				if pt.TPINs < best {
					best = pt.TPINs
					bestSize = side
				}
			}
			rowT[j] = best
			rowS[j] = bestSize
		}
		res.BestTPI = append(res.BestTPI, rowT)
		res.BestSize = append(res.BestSize, rowS)
	}
	return res, nil
}

// DiagonalOptimal reports whether, for every row and column, the minimum
// lies on (or ties with) the b = l diagonal.
func (r *DepthMatrixResult) DiagonalOptimal(tol float64) bool {
	n := len(r.Depths)
	for i := 0; i < n; i++ {
		diag := r.BestTPI[i][i]
		for j := 0; j < n; j++ {
			// Any off-diagonal entry in row i or column i beating both
			// adjacent diagonal points by more than tol breaks the rule.
			if j == i {
				continue
			}
			other := r.BestTPI[j][j]
			ref := math.Min(diag, other)
			if r.BestTPI[i][j] < ref-tol {
				return false
			}
		}
	}
	return true
}

// String renders the matrix.
func (r *DepthMatrixResult) String() string {
	headers := []string{"b \\ l"}
	for _, d := range r.Depths {
		headers = append(headers, fmt.Sprintf("l=%d", d))
	}
	t := tablefmt.New("Best TPI (ns) per (branch depth, load depth), equal split", headers...)
	for i, b := range r.Depths {
		cells := []any{fmt.Sprintf("b=%d", b)}
		for j := range r.Depths {
			cells = append(cells, fmt.Sprintf("%.2f@%dKW", r.BestTPI[i][j], r.BestSize[i][j]))
		}
		t.Row(cells...)
	}
	return t.String()
}

// AsymmetryRow is one configuration class of the asymmetric-split study.
type AsymmetryRow struct {
	Class string
	Best  TPIPoint
}

// AsymmetryStudyResult compares symmetric designs against I-heavy and
// D-heavy splits. The paper's Figure 13 observation: with small refill
// penalties it pays to make the instruction cache larger and pipeline it
// more deeply than the data cache, "because increasing the number of
// branch delay slots increases CPI less than a comparable increase in load
// delay slots".
type AsymmetryStudyResult struct {
	L2TimeNs float64
	Rows     []AsymmetryRow
}

// AsymmetryStudy finds the best design in each class: symmetric (b = l,
// equal sizes), I-heavy (b >= l, I side at least as large), and D-heavy
// (the mirror image).
func (l *Lab) AsymmetryStudy(l2TimeNs float64) (*AsymmetryStudyResult, error) {
	classes := []struct {
		name string
		ok   func(b, ld, iSize, dSize int) bool
	}{
		{"symmetric", func(b, ld, i, d int) bool { return b == ld && i == d }},
		{"I-heavy", func(b, ld, i, d int) bool { return b >= ld && i >= d && (b > ld || i > d) }},
		{"D-heavy", func(b, ld, i, d int) bool { return ld >= b && d >= i && (ld > b || d > i) }},
	}
	res := &AsymmetryStudyResult{L2TimeNs: l2TimeNs}
	// Pre-count the admissible points so the progress phase has a total.
	var total int64
	for _, cl := range classes {
		for b := 0; b <= 3; b++ {
			for ld := 0; ld <= 3; ld++ {
				for _, iSize := range l.P.SizesKW {
					for _, dSize := range l.P.SizesKW {
						if cl.ok(b, ld, iSize, dSize) {
							total++
						}
					}
				}
			}
		}
	}
	l.progress.StartPhase("asymmetry study", total)
	defer l.progress.Finish()
	for _, cl := range classes {
		type candidate struct {
			b, ld, iSize, dSize int
		}
		var cands []candidate
		for b := 0; b <= 3; b++ {
			for ld := 0; ld <= 3; ld++ {
				for _, iSize := range l.P.SizesKW {
					for _, dSize := range l.P.SizesKW {
						if cl.ok(b, ld, iSize, dSize) {
							cands = append(cands, candidate{b, ld, iSize, dSize})
						}
					}
				}
			}
		}
		pts := make([]TPIPoint, len(cands))
		err := l.forEach(context.Background(), len(cands), func(ctx context.Context, i int) error {
			c := cands[i]
			pt, err := l.TPIContext(ctx, c.b, c.ld, c.iSize, c.dSize, cpisim.LoadStatic, l2TimeNs)
			if err != nil {
				return err
			}
			pts[i] = pt
			l.progress.Step(1)
			return nil
		})
		if err != nil {
			return nil, err
		}
		best := TPIPoint{TPINs: math.Inf(1)}
		for _, pt := range pts {
			if pt.TPINs < best.TPINs {
				best = pt
			}
		}
		res.Rows = append(res.Rows, AsymmetryRow{Class: cl.name, Best: best})
	}
	return res, nil
}

// Best returns the named class's winner.
func (r *AsymmetryStudyResult) Best(class string) (TPIPoint, bool) {
	for _, row := range r.Rows {
		if row.Class == class {
			return row.Best, true
		}
	}
	return TPIPoint{}, false
}

// String renders the study.
func (r *AsymmetryStudyResult) String() string {
	t := tablefmt.New(
		fmt.Sprintf("Asymmetric L1 splits (%.0fns miss service)", r.L2TimeNs),
		"Class", "Best design")
	for _, row := range r.Rows {
		t.Row(row.Class, row.Best.String())
	}
	return t.String()
}
