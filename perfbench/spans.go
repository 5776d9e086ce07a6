package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one benchmark-side interval around a call into a layer. The
// spans of one operation (a request, a call or a sweep) share Op; a
// root span has Parent 0.
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	// Start and End are nanoseconds from the recorder's epoch.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; write saves them when the run ends.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// time runs fn inside a span named name and returns the span's id,
// which fn receives so that it can open child spans.
func (r *recorder) time(op, parent int64, name string, fn func(id int64)) int64 {
	r.mu.Lock()
	r.next++
	id := r.next
	if op == 0 {
		op = id
	}
	r.mu.Unlock()
	start := time.Since(r.epoch)
	fn(id)
	end := time.Since(r.epoch)
	r.mu.Lock()
	r.spans = append(r.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: int64(start), End: int64(end)})
	r.mu.Unlock()
	return id
}

func (r *recorder) write(path string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// account splits the traced wall of every operation into layer self
// times. A root span with lanes > 1 (a sweep whose cells run on a pool)
// is charged lanes × its duration; the part no child covers is reported
// under rootName (the pool's idle time), and every other span's self
// time — its duration minus its children's — under its own name, with
// the self time of spans named in asOther folded into "other".
//
// It checks the nesting that makes the sum exact: every child lies
// inside its parent, the children of a single-lane span do not overlap,
// and no more than lanes children of a root run at once. The returned
// map sums exactly to the returned wall, in nanoseconds.
func (r *recorder) account(lanes int, rootName string, asOther ...string) (map[string]int64, int64, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	other := map[string]bool{}
	for _, n := range asOther {
		other[n] = true
	}
	byID := make(map[int64]*span, len(r.spans))
	kids := make(map[int64][]span)
	for i := range r.spans {
		s := &r.spans[i]
		byID[s.ID] = s
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], *s)
		}
	}
	self := map[string]int64{}
	var wall int64
	for _, s := range r.spans {
		if s.Parent != 0 {
			if _, ok := byID[s.Parent]; !ok {
				return nil, 0, fmt.Errorf("span %q has no parent %d", s.Name, s.Parent)
			}
		}
		cs := kids[s.ID]
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		l := 1
		if s.Parent == 0 {
			l = lanes
		}
		var covered int64
		for i, c := range cs {
			if c.Start < s.Start || c.End > s.End {
				return nil, 0, fmt.Errorf("span %q escapes its parent %q", c.Name, s.Name)
			}
			if running := overlapping(cs[:i], c.Start); running >= l {
				return nil, 0, fmt.Errorf("span %q overlaps %d siblings under %q (lanes %d)", c.Name, running, s.Name, l)
			}
			covered += c.dur()
		}
		left := int64(l)*s.dur() - covered
		name := s.Name
		switch {
		case s.Parent == 0:
			wall += int64(l) * s.dur()
			name = rootName
		case other[name]:
			name = "other"
		}
		self[name] += left
	}
	return self, wall, nil
}

// overlapping counts the spans in earlier that are still running at t.
func overlapping(earlier []span, t int64) int {
	n := 0
	for _, e := range earlier {
		if e.End > t {
			n++
		}
	}
	return n
}

// opSpans sums the durations of operation op's spans by name.
func (r *recorder) opSpans(op int64) map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]int64{}
	for i := len(r.spans) - 1; i >= 0 && r.spans[i].Op >= op; i-- {
		if s := r.spans[i]; s.Op == op {
			out[s.Name] += s.dur()
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// totals sums the durations of all spans by name.
func (r *recorder) totals() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := map[string]int64{}
	for _, s := range r.spans {
		out[s.Name] += s.dur()
	}
	return out
}

// accountingNote checks the span nesting, then prints how the traced
// wall splits into layer self times and the leftover, and returns the
// split (see account).
func accountingNote(res *result, rec *recorder, lanes int, rootName string, asOther ...string) (map[string]int64, int64, error) {
	self, wall, err := rec.account(lanes, rootName, asOther...)
	if err != nil {
		return nil, 0, fmt.Errorf("layer accounting: %v", err)
	}
	var sum int64
	var parts []string
	for _, name := range sortedKeys(self) {
		sum += self[name]
		parts = append(parts, fmt.Sprintf("%s %.1f%%", name, 100*float64(self[name])/float64(wall)))
	}
	if sum != wall {
		return nil, 0, fmt.Errorf("layer accounting: self times sum to %d ns, traced wall is %d ns", sum, wall)
	}
	res.notef("layer accounting: traced wall %.1f ms x %d lanes = %s; other %.1f ms, check passed",
		ms(time.Duration(wall))/float64(lanes), lanes, strings.Join(parts, " + "), ms(time.Duration(self["other"])))
	return self, wall, nil
}
