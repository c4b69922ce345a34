package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
)

// minTail is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so p90 needs 100 samples.
const minTail = 10

// percentile returns the q-quantile (0 < q < 1) of xs by linear
// interpolation between the closest ranks, and false when fewer than
// minTail samples lie above it. xs need not be sorted.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 || n-int(math.Ceil(q*float64(n))) < minTail {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(pos)
	if lo+1 >= n {
		return s[n-1], true
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo]), true
}

// median is the plain middle value of xs (the mean of the two middle values
// for an even count), with no tail requirement; 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean is the arithmetic mean of xs; 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is num/den, or 0 when den is 0 (a layer the workload never used).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// parseStatCPU returns utime+stime, in clock ticks, from the contents of
// /proc/<pid>/stat. The command name (field 2) is parenthesized and may
// contain spaces, so fields are counted from the last ')'.
func parseStatCPU(stat []byte) (uint64, error) {
	i := bytes.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command name")
	}
	// After ')' come fields 3 (state) onward; utime and stime are fields
	// 14 and 15, so indices 11 and 12 here.
	f := bytes.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after command name, want at least 13", len(f))
	}
	utime, err := strconv.ParseUint(string(f[11]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(string(f[12]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return utime + stime, nil
}

// parseStatusKB returns the value of a "Key:   N kB" line of
// /proc/<pid>/status, such as VmHWM (peak resident set size).
func parseStatusKB(status []byte, key string) (int64, error) {
	for _, line := range bytes.Split(status, []byte("\n")) {
		rest, ok := bytes.CutPrefix(line, []byte(key+":"))
		if !ok {
			continue
		}
		f := bytes.Fields(rest)
		if len(f) != 2 || string(f[1]) != "kB" {
			return 0, fmt.Errorf("proc status %s: malformed line %q", key, line)
		}
		return strconv.ParseInt(string(f[0]), 10, 64)
	}
	return 0, fmt.Errorf("proc status: no %s line", key)
}
