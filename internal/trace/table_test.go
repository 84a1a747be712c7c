package trace

import (
	"strings"
	"testing"
)

func TestTableAlignment(t *testing.T) {
	tb := NewTable("Title", "Name", "Value").Align(1)
	tb.Row("alpha", "1.00")
	tb.Row("b", "12.50")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "Title" {
		t.Fatalf("title line %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "Name") {
		t.Fatalf("header %q", lines[1])
	}
	// Numeric column right-aligned: both data rows end at the same column.
	if len(lines[3]) != len(lines[4]) {
		t.Fatalf("rows not aligned:\n%q\n%q", lines[3], lines[4])
	}
	if !strings.HasSuffix(lines[3], " 1.00") || !strings.HasSuffix(lines[4], "12.50") {
		t.Fatalf("numeric alignment wrong:\n%q\n%q", lines[3], lines[4])
	}
}

func TestRowfFormatsFloats(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.Rowf("x", 3.14159)
	if !strings.Contains(tb.String(), "3.14") {
		t.Fatalf("float not formatted: %s", tb.String())
	}
}

func TestRowPadsAndTruncates(t *testing.T) {
	tb := NewTable("", "A", "B")
	tb.Row("only")
	tb.Row("a", "b", "dropped")
	out := tb.String()
	if strings.Contains(out, "dropped") {
		t.Fatal("extra cell not dropped")
	}
}
