package obs

import (
	"sort"
)

// Gauge returns the named gauge's value, zero when absent.
func (s Snapshot) Gauge(name string) int64 { return findMetric(s.Gauges, name) }

// Histogram returns the named histogram's snapshot and whether it was
// registered.
func (s Snapshot) Histogram(name string) (HistogramSnap, bool) {
	i := sort.Search(len(s.Histograms), func(i int) bool { return s.Histograms[i].Name >= name })
	if i < len(s.Histograms) && s.Histograms[i].Name == name {
		return s.Histograms[i], true
	}
	return HistogramSnap{}, false
}
