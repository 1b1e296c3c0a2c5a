package main

import (
	"fmt"
	"io"
	"strings"
)

// The terminal charts `mobbr figures` draws, so the paper's plots show
// without leaving the shell.

// chartWidth is a bar chart's maximum bar width in runes.
const chartWidth = 48

// bar is one labelled value.
type bar struct {
	label string
	value float64
	// note is appended after the value (e.g. the paper's number).
	note string
	// shaded draws the bar with ▒ instead of █ — a timeline bucket inside
	// an outage or degraded window.
	shaded bool
}

// chart is a titled group of bars on a shared scale, one per line: a
// figure's subplot, or a value over time with one bar per time bucket.
type chart struct {
	title string
	// unit is printed after each value ("Mbps", "ms", …).
	unit  string
	bars  []bar
	width int // maximum bar width in runes
	// max fixes the scale; 0 auto-scales to the largest bar.
	max float64
}

// write renders the chart to w.
func (c chart) write(w io.Writer) error {
	scale := c.max
	for _, b := range c.bars {
		scale = max(scale, b.value)
	}
	if _, err := fmt.Fprintf(w, "%s\n", c.title); err != nil {
		return err
	}
	labelW := 0
	for _, b := range c.bars {
		labelW = max(labelW, len(b.label))
	}
	for _, b := range c.bars {
		n := 0
		if scale > 0 {
			n = min(max(int(b.value/scale*float64(c.width)), 0), c.width)
		}
		fill := "█"
		if b.shaded {
			fill = "▒"
		}
		line := strings.Repeat(fill, n)
		if n == 0 {
			if b.shaded {
				line = "▒"
			} else if b.value > 0 {
				line = "▏"
			}
		}
		line = fmt.Sprintf("  %-*s %-*s %7.1f %s", labelW, b.label, c.width, line, b.value, c.unit)
		if b.note != "" {
			line += "  " + b.note
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(line, " ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// writeGrouped renders several bar charts sharing one scale (the figure's
// subplots).
func writeGrouped(w io.Writer, unit string, max float64, charts ...chart) error {
	for _, c := range charts {
		c.unit, c.max, c.width = unit, max, chartWidth
		if err := c.write(w); err != nil {
			return err
		}
	}
	return nil
}
