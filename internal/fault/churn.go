// Churn: a seeded Markov up/down process over links and routers that expands
// at run start into an ordinary cycle-stamped Schedule. Everything downstream
// of expansion — canonical cache keys, the determinism triangle, fault
// figures, the replaying State — works on the expanded schedule unchanged;
// the process itself is pure data (four per-cycle probabilities and a seed),
// so two runs with the same parameters expand to bit-identical schedules on
// any host.
package fault

import (
	"fmt"
	"math"

	"pseudocircuit/internal/sim"
)

// Churn describes an independent two-state (up/down) Markov chain per wired
// link and per router. Each cycle, an up target goes down with its Fail
// probability and a down target comes back with its Repair probability. A
// zero Fail probability disables the chain for that target class; a zero
// Repair probability with a nonzero Fail probability yields permanent faults
// (the expanded schedule is open, Schedule.AllowOpen).
type Churn struct {
	// Seed drives the expansion's private RNG. Equal seeds and parameters
	// expand identically; the seed is independent of the experiment's
	// traffic seed so churn can be varied while holding traffic fixed.
	Seed uint64
	// LinkFail/LinkRepair are per-cycle down/up transition probabilities
	// for every wired directional link, in [0, 1].
	LinkFail   float64
	LinkRepair float64
	// RouterFail/RouterRepair are the same for whole routers.
	RouterFail   float64
	RouterRepair float64
	// Policy selects the in-flight packet salvage policy of the expanded
	// schedule, exactly as on a spec-declared Schedule.
	Policy Policy
}

// Enabled reports whether the process can generate any event at all.
func (c Churn) Enabled() bool { return c.LinkFail > 0 || c.RouterFail > 0 }

// Validate rejects parameters outside the model: every probability must be a
// real number in [0, 1]. The negated comparison deliberately catches NaN.
func (c Churn) Validate() error {
	for _, p := range []struct {
		name string
		v    float64
	}{
		{"linkFail", c.LinkFail},
		{"linkRepair", c.LinkRepair},
		{"routerFail", c.RouterFail},
		{"routerRepair", c.RouterRepair},
	} {
		if !(p.v >= 0 && p.v <= 1) {
			return fmt.Errorf("fault: churn %s probability %v outside [0, 1]", p.name, p.v)
		}
	}
	return nil
}

// churnWait samples the geometric waiting time (in cycles, >= 1) until the
// next transition of a chain whose per-cycle transition probability is p,
// via the inverse transform k = 1 + floor(log(1-U)/log(1-p)). One uniform
// draw per transition keeps expansion O(events), not O(horizon·targets) —
// a per-cycle Bernoulli sweep would make tiny probabilities on long runs
// quadratically expensive. Waits past limit are clamped to limit (the caller
// treats that as "no transition before the horizon"), which also keeps the
// float→int conversion in range for arbitrarily small p.
func churnWait(rng *sim.RNG, p float64, limit int64) int64 {
	if p >= 1 {
		return 1
	}
	// Both logs are ≤ 0, so their quotient is ≥ 0 and k ≥ 1.
	k := math.Floor(math.Log1p(-rng.Float64())/math.Log1p(-p)) + 1
	if k >= float64(limit) {
		return limit
	}
	return int64(k)
}

// Expand materializes the process into a validated Schedule over t for cycles
// [0, horizon). Targets are walked in a fixed order (routers ascending, then
// wired links by router then direction port) with a single seeded RNG, so the
// expansion is a pure function of (parameters, topology, horizon). Every
// target starts up. Chains still down at the horizon stay down: the schedule
// is marked AllowOpen and the kernel treats those targets as permanently
// failed. Expansion fails, rather than truncating silently, if the parameters
// generate more than MaxEvents events — degenerate inputs (fail probability
// near 1 over a long horizon) surface as an error at the spec boundary, not
// as an unbounded allocation.
func (c Churn) Expand(t Topo, horizon int64) (*Schedule, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	if horizon < 0 {
		return nil, fmt.Errorf("fault: churn horizon %d is negative", horizon)
	}
	s := &Schedule{Policy: c.Policy, AllowOpen: true}
	if !c.Enabled() || horizon == 0 {
		return s, nil
	}
	rng := sim.NewRNG(c.Seed)
	routers := t.Routers()
	expand := func(router, port int, down, up Kind, pf, pr float64) error {
		if pf <= 0 {
			return nil
		}
		cycle := int64(0)
		for {
			cycle += churnWait(rng, pf, horizon)
			if cycle >= horizon {
				return nil
			}
			if len(s.Events) >= MaxEvents {
				return fmt.Errorf("fault: churn expansion exceeds %d events; lower the fail probabilities or shorten the run", MaxEvents)
			}
			s.Events = append(s.Events, Event{Cycle: cycle, Kind: down, Router: router, Port: port})
			if pr <= 0 {
				return nil // permanent: chain never repairs
			}
			cycle += churnWait(rng, pr, horizon)
			if cycle >= horizon {
				return nil // still down at the horizon: left open
			}
			if len(s.Events) >= MaxEvents {
				return fmt.Errorf("fault: churn expansion exceeds %d events; lower the fail probabilities or shorten the run", MaxEvents)
			}
			s.Events = append(s.Events, Event{Cycle: cycle, Kind: up, Router: router, Port: port})
		}
	}
	for r := 0; r < routers; r++ {
		if err := expand(r, 0, RouterDown, RouterUp, c.RouterFail, c.RouterRepair); err != nil {
			return nil, err
		}
	}
	for r := 0; r < routers; r++ {
		for out := 0; out < 4; out++ {
			if neighbor(t, r, out) < 0 {
				continue
			}
			if err := expand(r, out, LinkDown, LinkUp, c.LinkFail, c.LinkRepair); err != nil {
				return nil, err
			}
		}
	}
	if err := s.Validate(t, horizon); err != nil {
		// By construction the expansion satisfies every structural rule;
		// a failure here is a bug in the expander, not bad input.
		return nil, fmt.Errorf("fault: churn expansion produced an invalid schedule: %v", err)
	}
	return s, nil
}
