package main

import (
	"encoding/json"
	"io"
	"sort"
	"strings"
	"time"
)

// A span covers one call into a layer. Spans of one op share Op; the op's
// root span has Parent 0. Times are nanoseconds since the tracer started.
type span struct {
	Op     int64  `json:"op"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory until the run ends. It is not safe
// for concurrent use: every workload records its spans from the one
// goroutine that runs its ops.
type tracer struct {
	epoch time.Time
	spans []span
	ids   int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// open is a span that has started and not yet ended. A nil *open records
// nothing, so the same layer calls run traced and untraced.
type open struct {
	t *tracer
	s span
}

func (t *tracer) nextID() int64 {
	t.ids++
	return t.ids
}

// root starts the root span of a new op; its name is "op.<kind>".
func (t *tracer) root(kind string) *open {
	id := t.nextID()
	return &open{t: t, s: span{Op: id, ID: id, Name: "op." + kind, Start: t.since(time.Now())}}
}

func (t *tracer) since(at time.Time) int64 { return at.Sub(t.epoch).Nanoseconds() }

// child starts a span under p.
func (p *open) child(name string) *open {
	if p == nil {
		return nil
	}
	return &open{t: p.t, s: span{Op: p.s.Op, ID: p.t.nextID(), Parent: p.s.ID, Name: name, Start: p.t.since(time.Now())}}
}

// end closes the span and keeps it.
func (p *open) end() {
	if p == nil {
		return
	}
	p.s.End = p.t.since(time.Now())
	p.t.keep(p.s)
}

// closed records a finished child of p whose interval the caller measured.
func (p *open) closed(name string, start time.Time, d time.Duration) {
	if p == nil {
		return
	}
	s := p.t.since(start)
	p.t.keep(span{Op: p.s.Op, ID: p.t.nextID(), Parent: p.s.ID, Name: name, Start: s, End: s + d.Nanoseconds()})
}

// call runs f inside a child span of p.
func (p *open) call(name string, f func()) {
	c := p.child(name)
	f()
	c.end()
}

func (t *tracer) keep(s span) { t.spans = append(t.spans, s) }

// writeNDJSON writes one span per line, in start order.
func (t *tracer) writeNDJSON(w io.Writer) error {
	sorted := append([]span(nil), t.spans...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].ID < sorted[j].ID
	})
	enc := json.NewEncoder(w)
	for _, s := range sorted {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return nil
}

// selfTimes is the result of the self-time rule over every op traced:
// a span's self time is its duration minus the part of that interval its
// children cover.
type selfTimes struct {
	ops    int                // root spans seen
	wall   float64            // summed root duration, ms
	byName map[string]float64 // summed self time per span name, ms
}

// layerShare is the share of op wall time spent in layer spans, that is
// everything but the root spans' own self time.
func (st selfTimes) layerShare() float64 {
	if st.wall == 0 {
		return 0
	}
	root := 0.0
	for name, v := range st.byName {
		if strings.HasPrefix(name, "op.") {
			root += v
		}
	}
	return 1 - root/st.wall
}

// perOp is the mean self time per op of the spans named name, ms.
func (st selfTimes) perOp(name string) float64 {
	if st.ops == 0 {
		return 0
	}
	return st.byName[name] / float64(st.ops)
}

func (t *tracer) selfTimes() selfTimes {
	children := map[int64][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	st := selfTimes{byName: map[string]float64{}}
	for _, s := range t.spans {
		if s.Parent == 0 {
			st.ops++
			st.wall += float64(s.End-s.Start) / 1e6
		}
		self := s.End - s.Start - covered(s, children[s.ID])
		st.byName[s.Name] += float64(self) / 1e6
	}
	return st
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) int64 {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total, curStart, curEnd int64
	started := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if !started || s > curEnd {
			if started {
				total += curEnd - curStart
			}
			curStart, curEnd, started = s, e, true
			continue
		}
		curEnd = max(curEnd, e)
	}
	if started {
		total += curEnd - curStart
	}
	return total
}
