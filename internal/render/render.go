// Package render draws terminal bar charts for the reproduced figures, so
// `mobbr figures` can show the paper's plots without leaving the shell.
package render

import (
	"fmt"
	"io"
	"strings"
)

// Bar is one labelled value.
type Bar struct {
	Label string
	Value float64
	// Note is appended after the value (e.g. the paper's number).
	Note string
}

// Chart is a titled group of bars on a shared scale.
type Chart struct {
	Title string
	// Unit is printed after each value ("Mbps", "ms", …).
	Unit string
	Bars []Bar
	// Width is the maximum bar width in runes (default 48).
	Width int
	// Max fixes the scale; 0 auto-scales to the largest bar.
	Max float64
}

// Write renders the chart to w.
func (c Chart) Write(w io.Writer) error {
	width := c.Width
	if width <= 0 {
		width = 48
	}
	max := c.Max
	for _, b := range c.Bars {
		if b.Value > max {
			max = b.Value
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n", c.Title); err != nil {
		return err
	}
	labelW := 0
	for _, b := range c.Bars {
		if len(b.Label) > labelW {
			labelW = len(b.Label)
		}
	}
	for _, b := range c.Bars {
		n := 0
		if max > 0 {
			n = int(b.Value / max * float64(width))
		}
		if n < 0 {
			n = 0
		}
		if n > width {
			n = width
		}
		bar := strings.Repeat("█", n)
		if n == 0 && b.Value > 0 {
			bar = "▏"
		}
		line := fmt.Sprintf("  %-*s %-*s %7.1f %s", labelW, b.Label, width, bar, b.Value, c.Unit)
		if b.Note != "" {
			line += "  " + b.Note
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(line, " ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// TimeBucket is one time slot of a Timeline.
type TimeBucket struct {
	// Label names the bucket's start, e.g. " 3.0s".
	Label string
	Value float64
	// Shaded renders the bar with ▒ instead of █ — used to mark buckets
	// inside a fault or outage window.
	Shaded bool
	// Note is appended after the value (e.g. the segment kind beginning
	// at this bucket).
	Note string
}

// Timeline renders a value-over-time series as one horizontal bar per time
// bucket, top to bottom, with shaded buckets marking highlighted windows —
// the terminal equivalent of a goodput-over-time plot with fault segments
// shaded.
type Timeline struct {
	Title string
	// Unit is printed after each value ("Mbps", "ms", …).
	Unit    string
	Buckets []TimeBucket
	// Width is the maximum bar width in runes (default 48).
	Width int
	// Max fixes the scale; 0 auto-scales to the largest bucket.
	Max float64
}

// Write renders the timeline to w.
func (t Timeline) Write(w io.Writer) error {
	width := t.Width
	if width <= 0 {
		width = 48
	}
	max := t.Max
	for _, b := range t.Buckets {
		if b.Value > max {
			max = b.Value
		}
	}
	if _, err := fmt.Fprintf(w, "%s\n", t.Title); err != nil {
		return err
	}
	labelW := 0
	for _, b := range t.Buckets {
		if len(b.Label) > labelW {
			labelW = len(b.Label)
		}
	}
	for _, b := range t.Buckets {
		n := 0
		if max > 0 {
			n = int(b.Value / max * float64(width))
		}
		if n < 0 {
			n = 0
		}
		if n > width {
			n = width
		}
		fill := "█"
		if b.Shaded {
			fill = "▒"
		}
		bar := strings.Repeat(fill, n)
		if n == 0 {
			if b.Shaded {
				bar = "▒"
			} else if b.Value > 0 {
				bar = "▏"
			}
		}
		line := fmt.Sprintf("  %-*s %-*s %7.1f %s", labelW, b.Label, width, bar, b.Value, t.Unit)
		if b.Note != "" {
			line += "  " + b.Note
		}
		if _, err := fmt.Fprintln(w, strings.TrimRight(line, " ")); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Grouped renders several charts sharing one scale (the figure's subplots).
func Grouped(w io.Writer, unit string, max float64, charts ...Chart) error {
	for _, c := range charts {
		c.Unit = unit
		c.Max = max
		if err := c.Write(w); err != nil {
			return err
		}
	}
	return nil
}
