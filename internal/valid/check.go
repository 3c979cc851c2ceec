package valid

import (
	"fmt"

	"susc/internal/budget"
	"susc/internal/hexpr"
	"susc/internal/history"
	"susc/internal/intern"
	"susc/internal/lts"
	"susc/internal/policy"
)

// Violation is a counterexample to validity: a history of the expression
// whose final item violates an active policy.
type Violation struct {
	Policy hexpr.PolicyID
	Trace  history.History
}

func (v *Violation) Error() string {
	return fmt.Sprintf("valid: policy %s violated by history %q", v.Policy, v.Trace.String())
}

// Check statically verifies that every history the expression can produce
// is valid: it explores the product of the expression's LTS with the state
// sets of every policy automaton the expression mentions, running each
// automaton from the very start (the approach is history-dependent).
// Communication labels are skipped (they log nothing); session open/close
// log policy activations exactly as the network rules do.
//
// It returns nil when the expression is valid, a *Violation with a
// shortest offending history otherwise, and a different error when a
// mentioned policy is not in the table.
func Check(e hexpr.Expr, table *policy.Table) error {
	return CheckBudget(e, table, nil)
}

// CheckBudget is Check with the exploration charged against the budget
// (nil = unbounded): the LTS construction meters its own states and
// edges, and the product BFS — whose state space is the LTS times the
// monitor's state space, so potentially far larger than what the build
// charged — additionally charges one state per dequeued product node and
// one edge per product transition. Exhaustion aborts with the typed
// *budget.ExhaustedError; a violation found before the cutoff stands.
//
// The product pairs each LTS state with a history.Monitor over the
// policies e mentions, keyed on the monitor's Signature.
func CheckBudget(e hexpr.Expr, table *policy.Table, b *budget.Budget) error {
	l, err := lts.BuildBudgeted(intern.NewTable(), e, lts.DefaultMaxStates, b)
	if err != nil {
		return err
	}
	ids := hexpr.Policies(e)
	instances := make([]*policy.Instance, len(ids))
	for i, id := range ids {
		if instances[i], err = table.Get(id); err != nil {
			return err
		}
	}

	// nodes record their BFS parent and the logged item, so violating
	// histories are reconstructed on demand instead of copied per state
	// (keeping exploration linear in the state count).
	type node struct {
		expr   int
		mon    *history.Monitor
		parent *node
		item   *history.Item
	}
	rebuild := func(n *node, last history.Item) history.History {
		var rev history.History
		rev = append(rev, last)
		for cur := n; cur != nil; cur = cur.parent {
			if cur.item != nil {
				rev = append(rev, *cur.item)
			}
		}
		out := make(history.History, 0, len(rev))
		for i := len(rev) - 1; i >= 0; i-- {
			out = append(out, rev[i])
		}
		return out
	}
	type key struct {
		expr int
		sig  string
	}

	start := &node{mon: history.NewMonitor(policy.NewTable(instances...))}
	seen := map[key]bool{{0, start.mon.Signature()}: true}
	queue := []*node{start}

	for len(queue) > 0 {
		if err := b.ConsumeStates(1); err != nil {
			return err
		}
		n := queue[0]
		queue = queue[1:]
		for _, edge := range l.Edges[n.expr] {
			if err := b.ConsumeEdges(1); err != nil {
				return err
			}
			mon, item, err := advance(n.mon, edge.Label)
			if v, ok := err.(*history.ViolationError); ok {
				return &Violation{Policy: v.Policy, Trace: rebuild(n, *item)}
			}
			k := key{edge.To, mon.Signature()}
			if !seen[k] {
				seen[k] = true
				queue = append(queue, &node{expr: edge.To, mon: mon, parent: n, item: item})
			}
		}
	}
	return nil
}

// advance logs the item a transition label carries — an event, or the
// open or close of a non-trivial policy — on a snapshot of m, and returns
// the monitor after it, the item, and the monitor's *ViolationError when
// the item violates an active policy. Communications, τ and
// trivial-policy frames log nothing and keep m. A close with no matching
// open (a residual close) is logged and changes nothing.
func advance(m *history.Monitor, label hexpr.Label) (*history.Monitor, *history.Item, error) {
	var it history.Item
	switch label.Kind {
	case hexpr.LEvent:
		it = history.EventItem(label.Event)
	case hexpr.LFrameOpen, hexpr.LOpen:
		it = history.OpenItem(label.Policy)
	case hexpr.LFrameClose, hexpr.LClose:
		it = history.CloseItem(label.Policy)
	default:
		return m, nil, nil
	}
	if label.Kind != hexpr.LEvent && label.Policy == hexpr.NoPolicy {
		return m, nil, nil
	}
	next := m.Snapshot()
	switch err := next.Append(it).(type) {
	case nil:
		return next, &it, nil
	case *history.NestingError:
		return m, &it, nil
	default:
		return m, &it, err
	}
}

// Valid reports whether every history of e is valid; see Check.
func Valid(e hexpr.Expr, table *policy.Table) (bool, error) {
	err := Check(e, table)
	if err == nil {
		return true, nil
	}
	if _, ok := err.(*Violation); ok {
		return false, nil
	}
	return false, err
}
