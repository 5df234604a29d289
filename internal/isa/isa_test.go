package isa

import (
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		NoMem:  "NO_MEM",
		MemR:   "MEM_R",
		MemW:   "MEM_W",
		MemRW:  "MEM_RW",
		Branch: "BRANCH",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestKindPredicates(t *testing.T) {
	tests := []struct {
		k   Kind
		mem bool
	}{
		{NoMem, false},
		{MemR, true},
		{MemW, true},
		{MemRW, true},
		{Branch, false},
	}
	for _, tt := range tests {
		if got := tt.k.AccessesMemory(); got != tt.mem {
			t.Errorf("%v.AccessesMemory() = %v", tt.k, got)
		}
	}
}

func TestMixKindFoldsBranch(t *testing.T) {
	if Branch.MixKind() != NoMem {
		t.Error("Branch should fold to NoMem for mix accounting")
	}
	for _, k := range []Kind{NoMem, MemR, MemW, MemRW} {
		if k.MixKind() != k {
			t.Errorf("%v.MixKind() changed the kind", k)
		}
	}
}

func TestMixAddKindAndTotal(t *testing.T) {
	var m Mix
	m.AddKind(NoMem, 10)
	m.AddKind(MemR, 5)
	m.AddKind(MemW, 3)
	m.AddKind(MemRW, 2)
	m.AddKind(Branch, 4) // folds into NoMem

	if m.NoMem != 14 || m.MemR != 5 || m.MemW != 3 || m.MemRW != 2 {
		t.Fatalf("unexpected mix: %+v", m)
	}
	if m.Total() != 24 {
		t.Errorf("Total() = %d, want 24", m.Total())
	}
	if m.MemOps() != 10 {
		t.Errorf("MemOps() = %d, want 10", m.MemOps())
	}
}

func TestMixAdd(t *testing.T) {
	a := Mix{NoMem: 1, MemR: 2, MemW: 3, MemRW: 4}
	b := Mix{NoMem: 10, MemR: 20, MemW: 30, MemRW: 40}
	a.Add(b)
	want := Mix{NoMem: 11, MemR: 22, MemW: 33, MemRW: 44}
	if a != want {
		t.Errorf("Add: got %+v, want %+v", a, want)
	}
}

func TestMixFractionsSumToOne(t *testing.T) {
	f := func(noMem, memR, memW, memRW uint16) bool {
		m := Mix{NoMem: uint64(noMem), MemR: uint64(memR), MemW: uint64(memW), MemRW: uint64(memRW)}
		fr := m.Fractions()
		sum := fr[0] + fr[1] + fr[2] + fr[3]
		if m.Total() == 0 {
			return sum == 0
		}
		return sum > 0.999999 && sum < 1.000001
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixFractionsZero(t *testing.T) {
	var m Mix
	if fr := m.Fractions(); fr != [4]float64{} {
		t.Errorf("zero mix fractions = %v", fr)
	}
}

func TestBlockFinalize(t *testing.T) {
	b := &Block{
		ID: 0,
		PC: 0x1000,
		Instrs: []StaticInstr{
			{Kind: NoMem, Size: 4},
			{Kind: MemR, Size: 4},
			{Kind: MemW, Size: 4},
			{Kind: MemRW, Size: 4},
			{Kind: Branch, Size: 2},
		},
	}
	b.Finalize()
	if b.Len() != 5 {
		t.Errorf("Len() = %d, want 5", b.Len())
	}
	if b.MemOps != 3 {
		t.Errorf("MemOps = %d, want 3", b.MemOps)
	}
	wantMix := Mix{NoMem: 2, MemR: 1, MemW: 1, MemRW: 1}
	if b.Mix != wantMix {
		t.Errorf("Mix = %+v, want %+v", b.Mix, wantMix)
	}
	if b.Mix.Total() != uint64(b.Len()) {
		t.Error("mix total should equal block length")
	}
}

func TestBlockFinalizeIdempotent(t *testing.T) {
	b := &Block{Instrs: []StaticInstr{{Kind: MemR, Size: 4}, {Kind: NoMem, Size: 4}}}
	b.Finalize()
	first := b.Mix
	b.Finalize()
	if b.Mix != first {
		t.Error("Finalize is not idempotent")
	}
}
