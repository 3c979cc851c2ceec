package verify

import (
	"fmt"

	"susc/internal/hash"
	"susc/internal/memo"
	"susc/internal/network"
	"susc/internal/policy"
	"susc/internal/store"
)

// CheckNetwork validates a whole vector of clients in one exploration of
// the full product state space (component trees × monitors × shared
// availability) — the kernel's n-component call. Without capacity bounds,
// components never interact and CheckClients (one exploration per client)
// is equivalent and much cheaper; with bounded availability the
// components *do* interact — they compete for replicas — so only the
// product exploration is sound, e.g. it finds the deadlock where two
// clients each hold the last replica the other needs.
func CheckNetwork(repo network.Repository, table *policy.Table,
	clients []ClientSpec, opts Options) (*Report, error) {

	cache := opts.Cache
	if cache == nil {
		cache = memo.New()
	}
	// The persistent tier keys on the whole network's cone: components
	// compete for shared replicas, so there is no per-component
	// granularity to exploit.
	key := func() hash.Sum { return NetworkKey(repo, table, clients, opts.Capacities) }
	return cachedReport(cache, opts, store.KindNetworkReport, key, func() (*Report, error) {
		// per-client static prechecks; the witness names the client
		for _, c := range clients {
			r, err := staticCheck(repo, c.Client, c.Plan, cache)
			if err != nil {
				return nil, err
			}
			if r != nil {
				sep := ", "
				if r.Verdict == UnboundedNesting {
					sep = ": "
				}
				r.Witness = fmt.Sprintf("client at %s%s%s", c.Loc, sep, r.Witness)
				return r, nil
			}
		}
		x := &explorer{repo: repo, comps: clients, cache: cache, budget: opts.Budget}
		r, err := x.run(table, opts.Capacities)
		if err == errStateLimit {
			err = fmt.Errorf("verify: network exploration exceeds %d states", MaxStates)
		}
		return r, err
	})
}
