// Package branch implements the branch predictor used by the timing models
// (Sniper-like and native): a gshare/bimodal hybrid with 2-bit saturating
// counters, adequate to give realistic phase-dependent misprediction rates.
package branch

import "fmt"

// Config sizes the predictor.
type Config struct {
	// HistoryBits is the global-history length (gshare index width).
	HistoryBits int
	// TableBits is the log2 size of each counter table.
	TableBits int
}

// DefaultConfig is a 12-bit gshare with 4K-entry tables, roughly the class
// of predictor in the i7-class core of Table III.
func DefaultConfig() Config { return Config{HistoryBits: 12, TableBits: 12} }

// Predictor is a gshare/bimodal tournament predictor. Not safe for
// concurrent use.
type Predictor struct {
	cfg     Config
	history uint64
	histMax uint64
	mask    uint64
	gshare  []uint8 // 2-bit counters
	bimodal []uint8
	chooser []uint8 // 2-bit: >=2 prefers gshare

	stats Stats
}

// Stats counts predictor traffic.
type Stats struct {
	Branches    uint64
	Mispredicts uint64
}

// Rate returns the misprediction rate, or 0 with no branches.
func (s Stats) Rate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// MPKI returns mispredictions per kilo-instruction given the instruction
// count of the measured window.
func (s Stats) MPKI(instrs uint64) float64 {
	if instrs == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(instrs) * 1000
}

// New builds a predictor.
func New(cfg Config) (*Predictor, error) {
	if cfg.HistoryBits <= 0 || cfg.HistoryBits > 30 || cfg.TableBits <= 0 || cfg.TableBits > 24 {
		return nil, fmt.Errorf("branch: invalid config %+v", cfg)
	}
	size := 1 << cfg.TableBits
	p := &Predictor{
		cfg:     cfg,
		histMax: 1<<cfg.HistoryBits - 1,
		mask:    uint64(size - 1),
		gshare:  make([]uint8, size),
		bimodal: make([]uint8, size),
		chooser: make([]uint8, size),
	}
	// Weakly-taken initial state converges fastest for loop-heavy code.
	for i := range p.gshare {
		p.gshare[i] = 2
		p.bimodal[i] = 2
		p.chooser[i] = 2
	}
	return p, nil
}

// Stats returns the counters.
func (p *Predictor) Stats() Stats { return p.stats }

// ResetStats zeroes counters without forgetting learned state.
func (p *Predictor) ResetStats() { p.stats = Stats{} }

// Access predicts the branch at pc, trains on the resolved direction, and
// reports whether the prediction was wrong.
func (p *Predictor) Access(pc uint64, taken bool) (mispredicted bool) {
	gi := (pc ^ p.history) & p.mask
	bi := pc & p.mask
	gPred := p.gshare[gi] >= 2
	bPred := p.bimodal[bi] >= 2
	pred := bPred
	if p.chooser[bi] >= 2 {
		pred = gPred
	}

	// Train the chooser toward whichever component was right.
	if gPred != bPred {
		if gPred == taken {
			p.chooser[bi] = satInc(p.chooser[bi])
		} else {
			p.chooser[bi] = satDec(p.chooser[bi])
		}
	}
	if taken {
		p.gshare[gi] = satInc(p.gshare[gi])
		p.bimodal[bi] = satInc(p.bimodal[bi])
	} else {
		p.gshare[gi] = satDec(p.gshare[gi])
		p.bimodal[bi] = satDec(p.bimodal[bi])
	}
	p.history = ((p.history << 1) | b2u(taken)) & p.histMax

	p.stats.Branches++
	if pred != taken {
		p.stats.Mispredicts++
		return true
	}
	return false
}

func satInc(c uint8) uint8 {
	if c < 3 {
		return c + 1
	}
	return c
}

func satDec(c uint8) uint8 {
	if c > 0 {
		return c - 1
	}
	return c
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
