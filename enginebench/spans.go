package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"time"

	extra "repro"
	"repro/internal/trace"
)

// span is one interval the traced run records: the benchmark's own
// calls into the engine (categories "bench" and "db") and, merged in
// after the run, the engine's sampled statement traces (categories
// "statement", "phase", "operator", "storage").
type span struct {
	parent     int // index into the owning slice, -1 for a root
	cat, name  string
	session    int64
	start, end time.Time
	attrs      []trace.Attr
}

func (s *span) dur() time.Duration { return s.end.Sub(s.start) }

// spanLog is an append-only list of spans owned by one goroutine.
type spanLog []span

func (l *spanLog) add(parent int, cat, name string, session int64, start, end time.Time) int {
	*l = append(*l, span{parent: parent, cat: cat, name: name, session: session, start: start, end: end})
	return len(*l) - 1
}

// mergeTraces attaches each engine statement trace below the benchmark
// span of the same session whose interval contains the trace's start,
// and returns the merged list plus, per benchmark span index, the
// index of its statement span (-1 when none matched). A statement the
// benchmark issued outside any recorded call stays a root.
func mergeTraces(own spanLog, traces []*extra.Trace) (spanLog, []int) {
	out := append(spanLog(nil), own...)
	stmtOf := make([]int, len(own))
	for i := range stmtOf {
		stmtOf[i] = -1
	}
	bySession := map[int64][]int{}
	for i, s := range own {
		if s.cat == "bench" {
			bySession[s.session] = append(bySession[s.session], i)
		}
	}
	for _, idx := range bySession {
		sort.Slice(idx, func(a, b int) bool { return own[idx[a]].start.Before(own[idx[b]].start) })
	}
	for _, tr := range traces {
		parent := -1
		cands := bySession[tr.Session]
		k := sort.Search(len(cands), func(i int) bool { return own[cands[i]].start.After(tr.Start) })
		if k > 0 && !own[cands[k-1]].end.Before(tr.Start) {
			parent = cands[k-1]
		}
		base := len(out)
		for _, sp := range tr.Spans {
			p := parent
			if sp.Parent >= 0 {
				p = base + sp.Parent
			}
			out = append(out, span{parent: p, cat: sp.Kind.String(), name: sp.Name, session: tr.Session,
				start: sp.Start, end: sp.Start.Add(sp.Dur), attrs: sp.Attrs})
		}
		if parent >= 0 && len(tr.Spans) > 0 {
			stmtOf[parent] = base
		}
	}
	return out, stmtOf
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Children overlapping each
// other (the engine nests operator spans inside one another, and
// storage spans are instants) are merged before subtracting.
func selfTimes(spans spanLog) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Time }
		var ivs []iv
		for _, c := range kids[i] {
			a, b := spans[c].start, spans[c].end
			if a.Before(s.start) {
				a = s.start
			}
			if b.After(s.end) {
				b = s.end
			}
			if b.After(a) {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a.Before(ivs[y].a) })
		var covered time.Duration
		var curA, curB time.Time
		for j, v := range ivs {
			switch {
			case j == 0:
				curA, curB = v.a, v.b
			case v.a.After(curB):
				covered += curB.Sub(curA)
				curA, curB = v.a, v.b
			case v.b.After(curB):
				curB = v.b
			}
		}
		if len(ivs) > 0 {
			covered += curB.Sub(curA)
		}
		self[i] = s.dur() - covered
	}
	return self
}

// layerSelf sums self time by span category and name.
type layerSelf struct {
	cat, name string
	n         int
	self      time.Duration
}

func summarizeSelf(spans spanLog, self []time.Duration) []layerSelf {
	idx := map[[2]string]int{}
	var out []layerSelf
	for i, s := range spans {
		key := [2]string{s.cat, s.name}
		if s.cat == "operator" || s.cat == "storage" {
			key[1] = "" // operator names embed plan details; group by layer
		}
		j, ok := idx[key]
		if !ok {
			j = len(out)
			idx[key] = j
			out = append(out, layerSelf{cat: key[0], name: key[1]})
		}
		out[j].n++
		out[j].self += self[i]
	}
	sort.Slice(out, func(a, b int) bool { return out[a].self > out[b].self })
	return out
}

// writeChrome writes the spans as Chrome trace_event JSON (loadable in
// chrome://tracing or Perfetto): one complete ("X") event per span,
// pid = session, timestamps in microseconds from the first span.
func writeChrome(path string, spans spanLog) error {
	type event struct {
		Name string            `json:"name"`
		Cat  string            `json:"cat"`
		Ph   string            `json:"ph"`
		TS   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  int64             `json:"pid"`
		TID  int64             `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	var base time.Time
	for _, s := range spans {
		if base.IsZero() || s.start.Before(base) {
			base = s.start
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	bw.WriteString(`{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range spans {
		if i > 0 {
			bw.WriteByte(',')
		}
		ev := event{Name: s.name, Cat: s.cat, Ph: "X", PID: s.session, TID: s.session,
			TS:  float64(s.start.Sub(base).Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3}
		if len(s.attrs) > 0 {
			ev.Args = make(map[string]string, len(s.attrs))
			for _, a := range s.attrs {
				ev.Args[a.Key] = a.Val
			}
		}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// attrInt reads an integer span attribute (0 when absent).
func attrInt(s *span, key string) int64 {
	for _, a := range s.attrs {
		if a.Key == key {
			v, _ := strconv.ParseInt(a.Val, 10, 64)
			return v
		}
	}
	return 0
}
