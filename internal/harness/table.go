package harness

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Table is one experiment's output, renderable as aligned text, CSV or
// JSON.
type Table struct {
	ID      string     `json:"id"`
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
	Notes   []string   `json:"notes,omitempty"`
}

// AddRow appends a row; cells beyond the column count are rejected.
func (t *Table) AddRow(cells ...string) {
	if len(cells) != len(t.Columns) {
		panic(fmt.Sprintf("table %s: row has %d cells, want %d", t.ID, len(cells), len(t.Columns)))
	}
	t.Rows = append(t.Rows, cells)
}

// Format renders the table as aligned monospace text.
func (t *Table) Format() string {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s: %s ===\n", t.ID, t.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, note := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", note)
	}
	return b.String()
}

// CSV renders the table as comma-separated values (naive quoting is
// sufficient: no cell in this repository contains commas or quotes).
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Columns, ","))
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteString("\n")
	}
	return b.String()
}

// TablesJSON renders a set of tables as one indented JSON array — the
// shape dagbench -json emits.
func TablesJSON(tables []*Table) ([]byte, error) {
	return json.MarshalIndent(tables, "", "  ")
}

func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func i64(v int64) string  { return fmt.Sprintf("%d", v) }
func it(v int) string     { return fmt.Sprintf("%d", v) }
