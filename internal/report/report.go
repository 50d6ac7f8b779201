// Package report renders experiment results as aligned text tables and
// simple ASCII series, the form the benchmark harness prints every figure
// and table of the paper in.
package report

import (
	"fmt"
	"math"
	"strings"
)

// Table is a titled grid with a header row.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends formatted cells.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// String renders the table with aligned columns.
func (t *Table) String() string {
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.Rows {
		line(r)
	}
	return b.String()
}

// F formats a float compactly.
func F(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	case math.Abs(v) >= 10:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.4f", v)
	}
}

// Series is one figure: X values against one Y value per named variant.
type Series struct {
	Name   string
	XLabel string
	YLabel string
	// Variants in display order.
	Variants []string
	X        []float64
	// Y[variant][i] pairs with X[i].
	Y map[string][]float64
}

// NewSeries allocates a series for the given variants.
func NewSeries(name, xlabel, ylabel string, variants []string) *Series {
	y := make(map[string][]float64, len(variants))
	return &Series{Name: name, XLabel: xlabel, YLabel: ylabel, Variants: variants, Y: y}
}

// AddPoint appends one X with each variant's value.
func (s *Series) AddPoint(x float64, values map[string]float64) {
	s.X = append(s.X, x)
	for _, v := range s.Variants {
		s.Y[v] = append(s.Y[v], values[v])
	}
}

// Table converts the series to a printable table.
func (s *Series) Table() *Table {
	t := &Table{Title: fmt.Sprintf("%s — %s vs %s", s.Name, s.YLabel, s.XLabel)}
	t.Header = append([]string{s.XLabel}, s.Variants...)
	for i, x := range s.X {
		row := []string{F(x)}
		for _, v := range s.Variants {
			row = append(row, F(s.Y[v][i]))
		}
		t.AddRow(row...)
	}
	return t
}

// String renders the series as its table.
func (s *Series) String() string { return s.Table().String() }

// CSV renders the series as comma-separated values with a header row,
// ready for external plotting.
func (s *Series) CSV() string {
	var b strings.Builder
	b.WriteString(csvEscape(s.XLabel))
	for _, v := range s.Variants {
		b.WriteByte(',')
		b.WriteString(csvEscape(v))
	}
	b.WriteByte('\n')
	for i, x := range s.X {
		fmt.Fprintf(&b, "%g", x)
		for _, v := range s.Variants {
			fmt.Fprintf(&b, ",%g", s.Y[v][i])
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// CSV renders the table as comma-separated values.
func (t *Table) CSV() string {
	var b strings.Builder
	for i, h := range t.Header {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(csvEscape(h))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		for i, c := range row {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(csvEscape(c))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// GeoMean returns the geometric mean of vs (1.0 for empty).
func GeoMean(vs []float64) float64 {
	if len(vs) == 0 {
		return 1
	}
	sum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vs)))
}
