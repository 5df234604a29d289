package textplot

import (
	"strings"
	"testing"
)

func TestTableAlignsColumns(t *testing.T) {
	tab := NewTable("Name", "Value")
	tab.AddRow("short", "1")
	tab.AddRow("a-much-longer-name", "22")
	out := tab.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d lines: %q", len(lines), out)
	}
	// All rows must have the same rendered width.
	w := len(lines[0])
	for i, l := range lines {
		if len(strings.TrimRight(l, " ")) > w {
			t.Errorf("line %d wider than header: %q", i, l)
		}
	}
	if !strings.Contains(lines[1], "---") {
		t.Error("missing separator row")
	}
	if !strings.Contains(out, "a-much-longer-name") {
		t.Error("row content lost")
	}
}

func TestTablePadsShortRows(t *testing.T) {
	tab := NewTable("A", "B", "C")
	tab.AddRow("only-one")
	out := tab.String()
	if !strings.Contains(out, "only-one") {
		t.Error("short row lost")
	}
}

func TestAddRowfFormats(t *testing.T) {
	tab := NewTable("A", "B", "C")
	tab.AddRowf("x", 3, 1.23456789)
	out := tab.String()
	if !strings.Contains(out, "1.235") {
		t.Errorf("float not formatted: %q", out)
	}
	if !strings.Contains(out, "3") {
		t.Error("int lost")
	}
}

func TestBar(t *testing.T) {
	if got := Bar(5, 10, 10); got != "#####" {
		t.Errorf("Bar = %q", got)
	}
	if Bar(20, 10, 10) != "##########" {
		t.Error("Bar must clamp to width")
	}
	if Bar(-1, 10, 10) != "" || Bar(5, 0, 10) != "" || Bar(5, 10, 0) != "" {
		t.Error("degenerate bars must be empty")
	}
}

func TestStackedBar(t *testing.T) {
	out := StackedBar([]float64{0.5, 0.3, 0.2}, 20)
	if len(out) > 20 {
		t.Errorf("stacked bar too wide: %q", out)
	}
	if !strings.HasPrefix(out, "##########") {
		t.Errorf("first segment wrong: %q", out)
	}
	// Distinct segments use distinct runes.
	if !strings.Contains(out, "=") {
		t.Errorf("second segment missing: %q", out)
	}
}

func TestStackedBarTinyWeightsSkipped(t *testing.T) {
	out := StackedBar([]float64{0.99, 0.001}, 10)
	if len(out) > 10 {
		t.Errorf("overflow: %q", out)
	}
}
