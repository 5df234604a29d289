package branch

import (
	"testing"
	"testing/quick"

	"specsampling/internal/rng"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{HistoryBits: 0, TableBits: 10}); err == nil {
		t.Error("accepted zero history bits")
	}
	if _, err := New(Config{HistoryBits: 10, TableBits: 0}); err == nil {
		t.Error("accepted zero table bits")
	}
	if _, err := New(Config{HistoryBits: 40, TableBits: 10}); err == nil {
		t.Error("accepted oversized history")
	}
	if _, err := New(DefaultConfig()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

func TestAlwaysTakenLearns(t *testing.T) {
	p, _ := New(DefaultConfig())
	for i := 0; i < 1000; i++ {
		p.Access(0x400, true)
	}
	p.ResetStats()
	for i := 0; i < 1000; i++ {
		p.Access(0x400, true)
	}
	if rate := p.Stats().Rate(); rate > 0.01 {
		t.Errorf("always-taken misprediction rate = %v", rate)
	}
}

func TestLoopBranchLearns(t *testing.T) {
	// Taken 7 of 8 iterations: the period fits in the 12-bit history, so
	// gshare should learn the exit pattern essentially perfectly.
	p, _ := New(DefaultConfig())
	run := func() float64 {
		p.ResetStats()
		for iter := 0; iter < 2000; iter++ {
			for i := 0; i < 8; i++ {
				p.Access(0x800, i != 7)
			}
		}
		return p.Stats().Rate()
	}
	run() // warm
	if rate := run(); rate > 0.05 {
		t.Errorf("periodic loop branch misprediction rate = %v", rate)
	}
}

func TestRandomBranchNearHalf(t *testing.T) {
	p, _ := New(DefaultConfig())
	r := rng.New(1)
	for i := 0; i < 50000; i++ {
		p.Access(0xc00, r.Bool(0.5))
	}
	rate := p.Stats().Rate()
	if rate < 0.4 || rate > 0.6 {
		t.Errorf("random branch misprediction rate = %v, want ~0.5", rate)
	}
}

func TestBiasedBranchRate(t *testing.T) {
	// 90%-taken random branch: a 2-bit counter should approach ~10-18%.
	p, _ := New(DefaultConfig())
	r := rng.New(2)
	for i := 0; i < 20000; i++ {
		p.Access(0x1000, r.Bool(0.9))
	}
	p.ResetStats()
	for i := 0; i < 20000; i++ {
		p.Access(0x1000, r.Bool(0.9))
	}
	rate := p.Stats().Rate()
	if rate > 0.25 {
		t.Errorf("90%%-biased branch misprediction rate = %v", rate)
	}
	if rate == 0 {
		t.Error("biased random branch cannot be perfectly predicted")
	}
}

func TestStatsHelpers(t *testing.T) {
	var s Stats
	if s.Rate() != 0 || s.MPKI(1000) != 0 {
		t.Error("zero stats should give zero rates")
	}
	s = Stats{Branches: 100, Mispredicts: 10}
	if s.Rate() != 0.1 {
		t.Errorf("Rate = %v", s.Rate())
	}
	if s.MPKI(10000) != 1 {
		t.Errorf("MPKI = %v", s.MPKI(10000))
	}
	if s.MPKI(0) != 0 {
		t.Error("MPKI with zero instructions should be 0")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	seq := make([]bool, 5000)
	r := rng.New(3)
	for i := range seq {
		seq[i] = r.Bool(0.7)
	}
	run := func() Stats {
		p, _ := New(DefaultConfig())
		for i, taken := range seq {
			p.Access(uint64(0x400+(i%7)*64), taken)
		}
		return p.Stats()
	}
	if run() != run() {
		t.Error("identical branch streams produced different stats")
	}
}

func TestMispredictsNeverExceedBranches(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		p, _ := New(Config{HistoryBits: 8, TableBits: 8})
		r := rng.New(seed)
		for i := 0; i < int(n); i++ {
			p.Access(r.Next()%4096, r.Bool(0.5))
		}
		s := p.Stats()
		return s.Mispredicts <= s.Branches && s.Branches == uint64(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkPredictorAccess(b *testing.B) {
	p, _ := New(DefaultConfig())
	r := rng.New(4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Access(uint64(0x400+(i%13)*64), r.Bool(0.8))
	}
}
