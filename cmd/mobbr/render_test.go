package main

import (
	"strings"
	"testing"
)

func TestChartBasics(t *testing.T) {
	var buf strings.Builder
	c := chart{
		title: "Figure X",
		unit:  "Mbps",
		bars: []bar{
			{label: "cubic", value: 300},
			{label: "bbr", value: 150, note: "paper: 138"},
		},
		width: 10,
	}
	if err := c.write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Figure X") {
		t.Error("missing title")
	}
	// cubic is the max → 10 blocks; bbr half → 5 blocks.
	if !strings.Contains(out, strings.Repeat("█", 10)) {
		t.Errorf("full-scale bar missing:\n%s", out)
	}
	if !strings.Contains(out, strings.Repeat("█", 5)+" ") {
		t.Errorf("half-scale bar missing:\n%s", out)
	}
	if !strings.Contains(out, "paper: 138") {
		t.Error("note missing")
	}
	if !strings.Contains(out, "Mbps") {
		t.Error("unit missing")
	}
}

func TestChartZeroAndTiny(t *testing.T) {
	var buf strings.Builder
	c := chart{title: "t", bars: []bar{
		{label: "zero", value: 0},
		{label: "tiny", value: 0.001},
		{label: "big", value: 1000},
	}, width: 20}
	if err := c.write(&buf); err != nil {
		t.Fatal(err)
	}
	// A tiny nonzero value renders a sliver, not nothing.
	if !strings.Contains(buf.String(), "▏") {
		t.Errorf("tiny bar not rendered:\n%s", buf.String())
	}
}

func TestFixedScaleClamps(t *testing.T) {
	var buf strings.Builder
	c := chart{title: "t", max: 100, width: 10, bars: []bar{{label: "over", value: 250}}}
	if err := c.write(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), strings.Repeat("█", 11)) {
		t.Error("bar exceeded the chart width")
	}
}

func TestGroupedSharedScale(t *testing.T) {
	var buf strings.Builder
	err := writeGrouped(&buf, "Mbps", 1000,
		chart{title: "a", bars: []bar{{label: "x", value: 500}}},
		chart{title: "b", bars: []bar{{label: "y", value: 1000}}},
	)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, strings.Repeat("█", chartWidth/2)+" ") {
		t.Errorf("500/1000 should be half scale:\n%s", out)
	}
	if !strings.Contains(out, strings.Repeat("█", chartWidth)) {
		t.Errorf("1000/1000 should be full scale:\n%s", out)
	}
}

func TestTimelineShading(t *testing.T) {
	var buf strings.Builder
	tl := chart{
		title: "goodput over time",
		unit:  "Mbps",
		bars: []bar{
			{label: "0.0s", value: 10},
			{label: "0.5s", value: 5, shaded: true, note: "outage"},
			{label: "1.0s", value: 0, shaded: true},
			{label: "1.5s", value: 10},
		},
		width: 10,
	}
	if err := tl.write(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "goodput over time") {
		t.Error("missing title")
	}
	if !strings.Contains(out, strings.Repeat("█", 10)) {
		t.Errorf("full-scale unshaded bar missing:\n%s", out)
	}
	if !strings.Contains(out, strings.Repeat("▒", 5)) {
		t.Errorf("half-scale shaded bar missing:\n%s", out)
	}
	if !strings.Contains(out, "outage") {
		t.Error("note missing")
	}
	// A zero-value shaded bucket still shows a shaded sliver, so dark
	// windows stay visible on the plot.
	lines := strings.Split(out, "\n")
	found := false
	for _, l := range lines {
		if strings.Contains(l, "1.0s") && strings.Contains(l, "▒") {
			found = true
		}
	}
	if !found {
		t.Errorf("zero-value shaded bucket invisible:\n%s", out)
	}
}

func TestTimelineEmptyAndClamp(t *testing.T) {
	var buf strings.Builder
	if err := (chart{title: "empty"}).write(&buf); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	tl := chart{title: "t", width: 10, bars: []bar{{label: "x", value: 300}, {label: "y", value: 150}}}
	if err := tl.write(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), strings.Repeat("█", 11)) || !strings.Contains(buf.String(), strings.Repeat("█", 5)+" ") {
		t.Errorf("timeline not auto-scaled to its largest bucket:\n%s", buf.String())
	}
}
