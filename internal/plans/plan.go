package plans

import (
	"slices"

	"susc/internal/hexpr"
	"susc/internal/network"
	"susc/internal/verify"
)

// Plan is one plan of a swept family, held as the sweep holds it: a dense
// vector binding the i-th request of its table to location vec[i] (-1:
// unbound), read through the binding table the family's plans share.
// It is a value, and the vector is the family's own, not a copy. Key,
// String and AppendJSON render the plan straight from the vector; Map is
// the one place a plan map is built.
type Plan struct {
	t   *bindingTable
	vec []int32
}

// bindingTable names the requests and locations of a family's plan
// vectors, each rendered once for the plans' keys and wire form. It is
// built once per engine and holds nothing of the engine's graph, so the
// plans a caller keeps do not keep that graph alive.
type bindingTable struct {
	reqs []hexpr.RequestID // sorted: the order network.Plan.Key and encoding/json write a map in
	locs []hexpr.Location
	// The fragments binding (reqs[ri], locs[li]) renders as: reqKey[ri] +
	// locs[li] in a key ("r>l"), reqJSON[ri] + locJSON[li] in JSON
	// (`"r":"l"`).
	reqKey, reqJSON, locJSON []string
}

func newBindingTable(reqs []hexpr.RequestID, locs []hexpr.Location) *bindingTable {
	t := &bindingTable{reqs: reqs, locs: locs, reqKey: make([]string, len(reqs)),
		reqJSON: make([]string, len(reqs)), locJSON: make([]string, len(locs))}
	var b []byte
	for i, r := range reqs {
		t.reqKey[i] = string(r) + ">"
		b = verify.AppendJSONString(b[:0], string(r))
		t.reqJSON[i] = string(append(b, ':'))
	}
	for i, l := range locs {
		t.locJSON[i] = string(verify.AppendJSONString(b[:0], string(l)))
	}
	return t
}

// PlanOf is the plan of m over a table of its own. The legacy engine and
// code outside the package build their Plans with it.
func PlanOf(m network.Plan) Plan {
	reqs := make([]hexpr.RequestID, 0, len(m))
	for r := range m {
		reqs = append(reqs, r)
	}
	slices.Sort(reqs)
	locs := make([]hexpr.Location, len(reqs))
	vec := make([]int32, len(reqs))
	for i, r := range reqs {
		locs[i], vec[i] = m[r], int32(i)
	}
	return Plan{t: newBindingTable(reqs, locs), vec: vec}
}

// Map builds the plan's map.
func (p Plan) Map() network.Plan {
	n := 0
	for _, li := range p.vec {
		if li >= 0 {
			n++
		}
	}
	m := make(network.Plan, n)
	for ri, li := range p.vec {
		if li >= 0 {
			m[p.t.reqs[ri]] = p.t.locs[li]
		}
	}
	return m
}

// Key renders the plan as network.Plan.Key renders its map.
func (p Plan) Key() string {
	var buf [128]byte
	return string(p.appendKey(buf[:0]))
}

func (p Plan) String() string { return p.Key() }

// AppendJSON appends the plan's wire form to b: the bytes json.Marshal
// writes for its map as a map[string]string.
func (p Plan) AppendJSON(b []byte) []byte { return p.appendBindings(b, true) }

// JSONLen bounds the length of AppendJSON's output, for sizing a buffer.
func (p Plan) JSONLen() int {
	n := 2
	for ri, li := range p.vec {
		if li >= 0 {
			n += 1 + len(p.t.reqJSON[ri]) + len(p.t.locJSON[li])
		}
	}
	return n
}

// appendKey appends the plan's key to b. A sweep sorts its plans on these
// bytes, so the order it reports in and the keys it prints come from one
// function.
func (p Plan) appendKey(b []byte) []byte { return p.appendBindings(b, false) }

// appendBindings appends '{', the bound bindings in request order,
// separated by ',', and '}': each as its key fragments, or as its JSON
// ones when wire is set. The zero Plan appends "{}".
func (p Plan) appendBindings(b []byte, wire bool) []byte {
	b = append(b, '{')
	sep := false
	for ri, li := range p.vec {
		if li < 0 {
			continue
		}
		if sep {
			b = append(b, ',')
		}
		sep = true
		if wire {
			b = append(b, p.t.reqJSON[ri]...)
			b = append(b, p.t.locJSON[li]...)
		} else {
			b = append(b, p.t.reqKey[ri]...)
			b = append(b, p.t.locs[li]...)
		}
	}
	return append(b, '}')
}
