package stats

// WindowedMax tracks the maximum of a signal over a sliding window of
// "time" (any monotonically increasing uint64 unit — BBR uses round-trip
// counts for bandwidth and wall time for RTT). It is a port of the Linux
// kernel's lib/minmax.c: the best, second-best, and third-best samples are
// kept with their timestamps so the estimate degrades gracefully as old
// maxima age out.
type WindowedMax struct {
	window  uint64
	samples [3]minmaxSample
}

type minmaxSample struct {
	t uint64
	v float64
	// set marks an initialized slot; needed because 0 is a valid value.
	set bool
}

// NewWindowedMax returns a max filter over the given window length, by value
// so that its owner can embed it.
func NewWindowedMax(window uint64) WindowedMax {
	return WindowedMax{window: window}
}

// Update feeds a new measurement v observed at time t and returns the
// current windowed maximum.
func (w *WindowedMax) Update(t uint64, v float64) float64 {
	s := minmaxSample{t: t, v: v, set: true}
	if !w.samples[0].set || v >= w.samples[0].v || t-w.samples[2].t > w.window {
		// New best, or the whole window has aged out: reset.
		w.samples[0], w.samples[1], w.samples[2] = s, s, s
		return w.samples[0].v
	}
	if v >= w.samples[1].v {
		w.samples[1], w.samples[2] = s, s
	} else if v >= w.samples[2].v {
		w.samples[2] = s
	}
	return w.subwinUpdate(t, s)
}

// subwinUpdate ages out best samples that have fallen outside the window,
// mirroring minmax_subwin_update in the kernel.
func (w *WindowedMax) subwinUpdate(t uint64, s minmaxSample) float64 {
	dt := t - w.samples[0].t
	switch {
	case dt > w.window:
		// Best is too old; shift and take the new sample as third-best.
		w.samples[0] = w.samples[1]
		w.samples[1] = w.samples[2]
		w.samples[2] = s
		if t-w.samples[0].t > w.window {
			w.samples[0] = w.samples[1]
			w.samples[1] = w.samples[2]
			w.samples[2] = s
		}
	case w.samples[1].t == w.samples[0].t && dt > w.window/4:
		// Second-best is tied with best for a quarter window: refresh it.
		w.samples[1] = s
		w.samples[2] = s
	case w.samples[2].t == w.samples[1].t && dt > w.window/2:
		w.samples[2] = s
	}
	return w.samples[0].v
}

// Get returns the current windowed maximum without adding a sample.
func (w *WindowedMax) Get() float64 { return w.samples[0].v }

// WindowedMin tracks the minimum of a signal over a sliding time window
// (e.g. BBR's 10-second min_rtt filter). Unlike WindowedMax it keeps only
// the single best sample, matching how tcp_bbr.c tracks min_rtt with a
// timestamp plus expiry.
type WindowedMin struct {
	window uint64
	t      uint64
	v      float64
	set    bool
}

// NewWindowedMin returns a min filter over the given window length, by value
// so that its owner can embed it.
func NewWindowedMin(window uint64) WindowedMin {
	return WindowedMin{window: window}
}

// Update feeds a measurement v at time t and returns the current windowed
// minimum.
func (m *WindowedMin) Update(t uint64, v float64) float64 {
	if !m.set || v <= m.v || t-m.t > m.window {
		m.t, m.v, m.set = t, v, true
	}
	return m.v
}

// Get returns the current minimum (0 if no samples).
func (m *WindowedMin) Get() float64 { return m.v }
