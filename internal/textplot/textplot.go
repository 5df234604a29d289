// Package textplot renders the experiment outputs — tables, bars and small
// series plots — as plain text, so every figure of the paper has a terminal
// rendition.
package textplot

import (
	"fmt"
	"strings"
	"unicode/utf8"
)

// Table accumulates rows and renders them with aligned columns.
type Table struct {
	header []string
	rows   [][]string
}

// NewTable starts a table with the given column headers.
func NewTable(header ...string) *Table {
	return &Table{header: header}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// AddRowf appends a row of formatted cells: each argument is rendered with
// %v unless it is a float64, which gets %.4g.
func (t *Table) AddRowf(cells ...interface{}) {
	out := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case float64:
			out[i] = fmt.Sprintf("%.4g", v)
		case string:
			out[i] = v
		default:
			out[i] = fmt.Sprint(v)
		}
	}
	t.AddRow(out...)
}

// String renders the table. Column widths count runes, not bytes, so cells
// with multibyte characters (the shoot-out's ± intervals) stay aligned.
func (t *Table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = utf8.RuneCountInString(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if n := utf8.RuneCountInString(c); n > widths[i] {
				widths[i] = n
			}
		}
	}
	var b strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			b.WriteString(c)
			b.WriteString(strings.Repeat(" ", widths[i]-utf8.RuneCountInString(c)))
		}
		b.WriteString("\n")
	}
	writeRow(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	writeRow(sep)
	for _, row := range t.rows {
		writeRow(row)
	}
	return b.String()
}

// Bar renders value as a proportional bar of at most width characters
// against max. Negative values render empty.
func Bar(value, max float64, width int) string {
	if width <= 0 || max <= 0 || value <= 0 {
		return ""
	}
	n := int(value / max * float64(width))
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// StackedBar renders weights (summing to <= 1) as a width-character bar with
// a distinct rune per segment, cycling through a small alphabet — the
// text rendition of the paper's Figure 6 stacked weight bars.
func StackedBar(weights []float64, width int) string {
	const alphabet = "#=+-*o.:x%"
	var b strings.Builder
	used := 0
	for i, w := range weights {
		n := int(w * float64(width))
		if used+n > width {
			n = width - used
		}
		if n <= 0 {
			continue
		}
		b.WriteString(strings.Repeat(string(alphabet[i%len(alphabet)]), n))
		used += n
	}
	return b.String()
}
