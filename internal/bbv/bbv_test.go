package bbv

import (
	"math"
	"testing"
	"testing/quick"

	"specsampling/internal/isa"
)

func mkBlock(id, length int) *isa.Block {
	b := &isa.Block{ID: id}
	for i := 0; i < length-1; i++ {
		b.Instrs = append(b.Instrs, isa.StaticInstr{Kind: isa.NoMem, Size: 4})
	}
	b.Instrs = append(b.Instrs, isa.StaticInstr{Kind: isa.Branch, Size: 2})
	b.Finalize()
	return b
}

func TestCollectorAccumulatesAndCuts(t *testing.T) {
	c := NewCollector(3)
	b0, b1 := mkBlock(0, 5), mkBlock(1, 7)
	c.Observe(b0)
	c.Observe(b0)
	c.Observe(b1)
	if c.SliceInstrs() != 17 {
		t.Errorf("SliceInstrs = %d, want 17", c.SliceInstrs())
	}
	v, n := c.Cut()
	if n != 17 {
		t.Errorf("cut instrs = %d", n)
	}
	if v[0] != 10 || v[1] != 7 || v[2] != 0 {
		t.Errorf("vector = %v", v)
	}
	// Collector resets after a cut.
	if c.SliceInstrs() != 0 {
		t.Error("collector not reset")
	}
	if v2, n2 := c.Cut(); v2 != nil || n2 != 0 {
		t.Error("empty cut should return nil")
	}
}

func TestCutVectorIndependence(t *testing.T) {
	c := NewCollector(2)
	b := mkBlock(0, 4)
	c.Observe(b)
	v1, _ := c.Cut()
	c.Observe(b)
	c.Observe(b)
	v2, _ := c.Cut()
	if v1[0] != 4 {
		t.Errorf("first cut mutated: %v", v1)
	}
	if v2[0] != 8 {
		t.Errorf("second cut wrong: %v", v2)
	}
}

func TestNormalizeL1(t *testing.T) {
	v := []float64{2, 6, 2}
	NormalizeL1(v)
	want := []float64{0.2, 0.6, 0.2}
	for i := range v {
		if math.Abs(v[i]-want[i]) > 1e-12 {
			t.Errorf("normalized = %v", v)
			break
		}
	}
	zero := []float64{0, 0}
	NormalizeL1(zero)
	if zero[0] != 0 || zero[1] != 0 {
		t.Error("zero vector changed")
	}
}

func TestNormalizeL1Property(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		v := make([]float64, len(raw))
		var total float64
		for i, x := range raw {
			v[i] = float64(x)
			total += float64(x)
		}
		NormalizeL1(v)
		if total == 0 {
			return true
		}
		var sum float64
		for _, x := range v {
			if x < 0 {
				return false
			}
			sum += x
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestProjectorDeterminism(t *testing.T) {
	p1, err := NewProjector(100, 15, 7)
	if err != nil {
		t.Fatal(err)
	}
	p2, _ := NewProjector(100, 15, 7)
	v := make([]float64, 100)
	for i := range v {
		v[i] = float64(i % 5)
	}
	a, b := p1.Project(v), p2.Project(v)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same-seed projectors disagree")
		}
	}
	p3, _ := NewProjector(100, 15, 8)
	c := p3.Project(v)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Error("different-seed projectors agree")
	}
}

func TestProjectorLinearity(t *testing.T) {
	p, _ := NewProjector(20, 5, 3)
	a := make([]float64, 20)
	b := make([]float64, 20)
	for i := range a {
		a[i] = float64(i)
		b[i] = float64(20 - i)
	}
	sum := make([]float64, 20)
	for i := range sum {
		sum[i] = a[i] + b[i]
	}
	pa, pb, ps := p.Project(a), p.Project(b), p.Project(sum)
	for j := range ps {
		if math.Abs(ps[j]-(pa[j]+pb[j])) > 1e-9 {
			t.Fatalf("projection not linear at dim %d", j)
		}
	}
}

func TestProjectorPreservesSimilarityOrder(t *testing.T) {
	// Near-identical vectors must stay much closer than very different ones.
	p, _ := NewProjector(200, 15, 11)
	base := make([]float64, 200)
	near := make([]float64, 200)
	far := make([]float64, 200)
	for i := range base {
		base[i] = float64((i*7)%13) / 13
		near[i] = base[i]
		far[i] = float64(((i+101)*31)%17) / 17
	}
	near[3] += 0.01
	pb, pn, pf := p.Project(base), p.Project(near), p.Project(far)
	if SqDist(pb, pn) >= SqDist(pb, pf) {
		t.Errorf("projection inverted similarity: near %v, far %v", SqDist(pb, pn), SqDist(pb, pf))
	}
}

func TestProjectorValidation(t *testing.T) {
	if _, err := NewProjector(0, 5, 1); err == nil {
		t.Error("accepted zero input dims")
	}
	if _, err := NewProjector(5, 0, 1); err == nil {
		t.Error("accepted zero output dims")
	}
	p, _ := NewProjector(4, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("expected panic on dim mismatch")
		}
	}()
	p.Project([]float64{1, 2})
}

func TestDistances(t *testing.T) {
	a := []float64{0, 0, 0}
	b := []float64{1, 2, 2}
	if got := SqDist(a, b); got != 9 {
		t.Errorf("SqDist = %v, want 9", got)
	}
	if SqDist(a, a) != 0 || SqDist(b, b) != 0 {
		t.Error("self distance must be 0")
	}
}

func TestDistanceSymmetryProperty(t *testing.T) {
	f := func(ax, ay, bx, by float64) bool {
		if math.IsNaN(ax+ay+bx+by) || math.IsInf(ax+ay+bx+by, 0) {
			return true
		}
		a := []float64{ax, ay}
		b := []float64{bx, by}
		return SqDist(a, b) == SqDist(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDistancePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	SqDist([]float64{1}, []float64{1, 2})
}
