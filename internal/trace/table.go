// Package trace provides the plain-text table writer used to print the
// reproduced tables and experiment reports.
package trace

import (
	"fmt"
	"io"
	"strings"
)

// Table accumulates rows of string cells and renders them with aligned
// columns, in the style of the paper's tables.
type Table struct {
	Title   string
	header  []string
	rows    [][]string
	numeric []bool // right-align these columns
}

// NewTable starts a table with the given column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{Title: title, header: header, numeric: make([]bool, len(header))}
}

// Align marks columns (by index) as numeric, i.e. right-aligned.
func (t *Table) Align(numericCols ...int) *Table {
	for _, c := range numericCols {
		t.numeric[c] = true
	}
	return t
}

// Row appends one row; cells beyond the header width are dropped, missing
// cells are blank.
func (t *Table) Row(cells ...string) {
	row := make([]string, len(t.header))
	for i := range row {
		if i < len(cells) {
			row[i] = cells[i]
		}
	}
	t.rows = append(t.rows, row)
}

// Rowf appends a row built from values formatted with %v, with float64
// rendered to two decimals.
func (t *Table) Rowf(values ...any) {
	cells := make([]string, len(values))
	for i, v := range values {
		switch x := v.(type) {
		case float64:
			cells[i] = fmt.Sprintf("%.2f", x)
		default:
			cells[i] = fmt.Sprint(v)
		}
	}
	t.Row(cells...)
}

// Write renders the table.
func (t *Table) Write(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintln(w, t.Title)
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if t.numeric[i] {
				parts[i] = fmt.Sprintf("%*s", widths[i], c)
			} else {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.header)
	rule := make([]string, len(t.header))
	for i := range rule {
		rule[i] = strings.Repeat("-", widths[i])
	}
	line(rule)
	for _, row := range t.rows {
		line(row)
	}
}

// String renders the table to a string.
func (t *Table) String() string {
	var sb strings.Builder
	t.Write(&sb)
	return sb.String()
}
