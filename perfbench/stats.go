package main

import (
	"bufio"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of the raw samples by the nearest-rank
// rule: the smallest sample with at least a q share of the samples at
// or below it. It never interpolates, so on sweep-analytic, whose whole
// cycles give every workload the same share of samples, a percentile
// always lands inside one workload's group.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	rank := int(math.Ceil(q * float64(len(s))))
	return s[max(rank, 1)-1]
}

// byWindow applies stat to the samples of each window, in window order;
// win[i] is the window of vals[i].
func byWindow(win []int, vals []float64, stat func([]float64) float64) []float64 {
	groups := map[int][]float64{}
	for i, w := range win {
		groups[w] = append(groups[w], vals[i])
	}
	keys := make([]int, 0, len(groups))
	for w := range groups {
		keys = append(keys, w)
	}
	sort.Ints(keys)
	out := make([]float64, len(keys))
	for i, w := range keys {
		out[i] = stat(groups[w])
	}
	return out
}

func median(samples []float64) float64 { return quantile(samples, 0.5) }

// beyond counts the samples strictly above v: the support of a tail
// percentile.
func beyond(samples []float64, v float64) int {
	n := 0
	for _, s := range samples {
		if s > v {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb / 1024
		}
	}
	return math.NaN()
}

// splitmix mixes a benchmark seed with a stream and an index into a
// positive, non-zero 62-bit data seed, so every request or call gets
// distinct inputs that depend only on the --seed argument.
func splitmix(seed int64, stream, i int) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(stream)<<40 + uint64(i)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z>>2) | 1
}
