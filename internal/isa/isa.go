// Package isa defines the synthetic instruction set used throughout the
// reproduction. It stands in for the x86-64 ISA that Pin observes in the
// original study: the SimPoint methodology is ISA-independent (it consumes
// the dynamic basic-block stream), so the only properties the ISA must model
// are the ones the paper measures — the memory-operand category of each
// instruction (the ldstmix breakdown), the memory address it touches, and
// control flow between basic blocks.
package isa

import "fmt"

// Kind is the memory-operand category of an instruction. The categories
// mirror the paper's ldstmix breakdown (Section IV-D): NO_MEM instructions
// reference no memory operands, MEM_R instructions have at least one memory
// source, MEM_W have a memory destination, and MEM_RW have both (e.g. x86
// movs memory-to-memory instructions, per footnote 1 of the paper).
type Kind uint8

const (
	// NoMem is a compute-only instruction (register/immediate operands).
	NoMem Kind = iota
	// MemR reads one memory source operand.
	MemR
	// MemW writes one memory destination operand.
	MemW
	// MemRW both reads and writes memory (memory-to-memory move).
	MemRW
	// Branch is a control-flow instruction ending a basic block. It is a
	// NO_MEM instruction for mix-accounting purposes but is distinguished so
	// branch predictors and BBV collection can observe it.
	Branch

	// NumKinds is the number of instruction kinds.
	NumKinds = int(Branch) + 1
)

// String returns the ldstmix-style name of the kind.
func (k Kind) String() string {
	switch k {
	case NoMem:
		return "NO_MEM"
	case MemR:
		return "MEM_R"
	case MemW:
		return "MEM_W"
	case MemRW:
		return "MEM_RW"
	case Branch:
		return "BRANCH"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// MixKind folds a kind onto the four ldstmix accounting categories: branches
// count as NO_MEM, exactly as in the paper's instruction-distribution plots.
func (k Kind) MixKind() Kind {
	if k == Branch {
		return NoMem
	}
	return k
}

// AccessesMemory reports whether the instruction touches memory at all.
func (k Kind) AccessesMemory() bool { return k == MemR || k == MemW || k == MemRW }

// StaticInstr is one instruction of a static basic block. Its address
// operands are produced dynamically by the executing program's memory
// pattern generators; the static form carries only the kind and encoded
// size (used to advance the PC, as in a real ISA).
type StaticInstr struct {
	Kind Kind
	// Size is the encoded instruction length in bytes (1-15 on x86; we use
	// a fixed small range). It only matters for PC arithmetic.
	Size uint8
}

// Mix is a count of instructions per ldstmix category. Branches are folded
// into NoMem (see Kind.MixKind).
type Mix struct {
	NoMem uint64
	MemR  uint64
	MemW  uint64
	MemRW uint64
}

// Add accumulates other into m.
func (m *Mix) Add(other Mix) {
	m.NoMem += other.NoMem
	m.MemR += other.MemR
	m.MemW += other.MemW
	m.MemRW += other.MemRW
}

// AddKind counts n instructions of kind k.
func (m *Mix) AddKind(k Kind, n uint64) {
	switch k.MixKind() {
	case NoMem:
		m.NoMem += n
	case MemR:
		m.MemR += n
	case MemW:
		m.MemW += n
	case MemRW:
		m.MemRW += n
	}
}

// Total is the total instruction count in the mix.
func (m Mix) Total() uint64 { return m.NoMem + m.MemR + m.MemW + m.MemRW }

// MemOps is the number of instructions that access memory.
func (m Mix) MemOps() uint64 { return m.MemR + m.MemW + m.MemRW }

// Fractions returns the per-category shares in ldstmix order
// (NO_MEM, MEM_R, MEM_W, MEM_RW). A zero mix returns all zeros.
func (m Mix) Fractions() [4]float64 {
	t := float64(m.Total())
	if t == 0 {
		return [4]float64{}
	}
	return [4]float64{
		float64(m.NoMem) / t,
		float64(m.MemR) / t,
		float64(m.MemW) / t,
		float64(m.MemRW) / t,
	}
}

// Block is a static basic block: a straight-line sequence of instructions
// ending (implicitly) with the block's terminator. Blocks are the unit of
// BBV accounting, exactly as in SimPoint: the BBV entry for a block is
// incremented by the block's instruction count each time the block executes.
type Block struct {
	// ID is the block's global index within its program (dense, 0-based).
	ID int
	// PC is the block's starting program counter.
	PC uint64
	// Instrs is the block body. The final instruction is the terminator
	// (Branch kind) for blocks with conditional successors.
	Instrs []StaticInstr
	// Mix is the precomputed per-category instruction count of the body,
	// letting block-granular tools account a whole block in O(1).
	Mix Mix
	// MemOps is the number of memory-accessing instructions in the body.
	MemOps int
}

// Len is the number of instructions in the block.
func (b *Block) Len() int { return len(b.Instrs) }

// Finalize computes the derived fields (Mix, MemOps, PCs). It must be
// called after Instrs is populated and before the block is executed.
func (b *Block) Finalize() {
	b.Mix = Mix{}
	b.MemOps = 0
	for _, in := range b.Instrs {
		b.Mix.AddKind(in.Kind, 1)
		if in.Kind.AccessesMemory() {
			b.MemOps++
		}
	}
}

// MemRef is a dynamic memory reference produced by an executing instruction.
type MemRef struct {
	// Addr is the byte address of the access.
	Addr uint64
	// Size is the access size in bytes.
	Size uint8
	// Write reports whether the access is a store.
	Write bool
}

// BranchEvent is a dynamic conditional-branch outcome, consumed by branch
// predictors in the timing models.
type BranchEvent struct {
	// PC is the address of the branch instruction.
	PC uint64
	// Taken is the resolved direction.
	Taken bool
}
