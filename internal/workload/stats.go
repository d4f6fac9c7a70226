package workload

import (
	"fmt"
	"strings"
)

// Summary aggregates the workload statistics the paper reports in Tables I
// and II: coflow counts per density class and per transmission mode, and
// the byte share per mode.
type Summary struct {
	Total        int
	CountByClass map[Class]int
	CountByMode  map[Mode]int
	BytesByMode  map[Mode]int64
	TotalBytes   int64
}

// Summarize computes the Summary of a workload.
func Summarize(coflows []Coflow) Summary {
	s := Summary{
		Total:        len(coflows),
		CountByClass: make(map[Class]int),
		CountByMode:  make(map[Mode]int),
		BytesByMode:  make(map[Mode]int64),
	}
	for _, c := range coflows {
		cl := Classify(c.Demand)
		md := ClassifyMode(c.Demand)
		s.CountByClass[cl]++
		s.CountByMode[md]++
		b := c.Demand.Total()
		s.BytesByMode[md] += b
		s.TotalBytes += b
	}
	return s
}

// ClassPercent returns the percentage of coflows in the given density class.
func (s Summary) ClassPercent(c Class) float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(s.CountByClass[c]) / float64(s.Total)
}

// ModePercent returns the percentage of coflows with the given mode.
func (s Summary) ModePercent(m Mode) float64 {
	if s.Total == 0 {
		return 0
	}
	return 100 * float64(s.CountByMode[m]) / float64(s.Total)
}

// BytesPercent returns the percentage of total bytes carried by coflows of
// the given mode.
func (s Summary) BytesPercent(m Mode) float64 {
	if s.TotalBytes == 0 {
		return 0
	}
	return 100 * float64(s.BytesByMode[m]) / float64(s.TotalBytes)
}

// String renders the summary in the layout of Tables I and II.
func (s Summary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Density    Sparse  Normal  Dense\n")
	fmt.Fprintf(&b, "Percent%%   %6.2f  %6.2f  %5.2f\n",
		s.ClassPercent(Sparse), s.ClassPercent(Normal), s.ClassPercent(Dense))
	fmt.Fprintf(&b, "Mode        S2S    S2M    M2S    M2M\n")
	fmt.Fprintf(&b, "Numbers%%  %5.2f  %5.2f  %5.2f  %5.2f\n",
		s.ModePercent(S2S), s.ModePercent(S2M), s.ModePercent(M2S), s.ModePercent(M2M))
	fmt.Fprintf(&b, "Sizes%%    %5.3f  %5.3f  %5.3f  %6.3f\n",
		s.BytesPercent(S2S), s.BytesPercent(S2M), s.BytesPercent(M2S), s.BytesPercent(M2M))
	return b.String()
}
