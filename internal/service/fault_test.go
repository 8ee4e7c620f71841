package service

import (
	"errors"
	"strings"
	"testing"
)

// FuzzFaultSchedule fuzzes the fault-schedule fragment of a job request
// through the same decode + canonicalize path the daemon runs. The fuzzed
// bytes are spliced in as the "faults" value of an otherwise valid request,
// so the fuzzer concentrates on schedule-shaped input: out-of-range ids,
// past-horizon cycles, down-without-up, duplicate or unsorted events. The
// contract matches FuzzDecodeRequest: hostile schedules must come back as
// ErrBadRequest — never a panic — and accepted ones must canonicalize to a
// fixed point.
func FuzzFaultSchedule(f *testing.F) {
	f.Add([]byte(`{"events":[{"cycle":2000,"kind":"link-down","router":5},{"cycle":4000,"kind":"link-up","router":5}]}`))
	f.Add([]byte(`{"drop":"reroute","events":[{"cycle":1500,"kind":"router-down","router":27},{"cycle":9000,"kind":"router-up","router":27}]}`))
	f.Add([]byte(`{"events":[]}`))
	f.Add([]byte(`null`))
	// Out-of-range ids.
	f.Add([]byte(`{"events":[{"cycle":10,"kind":"link-down","router":64},{"cycle":20,"kind":"link-up","router":64}]}`))
	f.Add([]byte(`{"events":[{"cycle":10,"kind":"link-down","router":-1},{"cycle":20,"kind":"link-up","router":-1}]}`))
	f.Add([]byte(`{"events":[{"cycle":10,"kind":"link-down","router":0,"port":7},{"cycle":20,"kind":"link-up","router":0,"port":7}]}`))
	// Past-horizon and negative cycles.
	f.Add([]byte(`{"events":[{"cycle":999999,"kind":"link-down","router":5},{"cycle":1000000,"kind":"link-up","router":5}]}`))
	f.Add([]byte(`{"events":[{"cycle":-7,"kind":"link-down","router":5},{"cycle":20,"kind":"link-up","router":5}]}`))
	// Down without up, up without down, duplicates, unsorted.
	f.Add([]byte(`{"events":[{"cycle":10,"kind":"link-down","router":5}]}`))
	f.Add([]byte(`{"events":[{"cycle":10,"kind":"link-up","router":5}]}`))
	f.Add([]byte(`{"events":[{"cycle":10,"kind":"link-down","router":5},{"cycle":10,"kind":"link-down","router":5}]}`))
	f.Add([]byte(`{"events":[{"cycle":4000,"kind":"link-up","router":5},{"cycle":2000,"kind":"link-down","router":5}]}`))
	// Unknown kind, router event with a port, malformed JSON.
	f.Add([]byte(`{"events":[{"cycle":10,"kind":"meltdown","router":5}]}`))
	f.Add([]byte(`{"events":[{"cycle":10,"kind":"router-down","router":5,"port":2},{"cycle":20,"kind":"router-up","router":5,"port":2}]}`))
	f.Add([]byte(`{"events":[{"cycle":`))
	f.Add([]byte(`[1,2,3]`))

	f.Fuzz(func(t *testing.T, data []byte) {
		raw := []byte(`{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"rate":0.1},"faults":` + string(data) + `}`)
		r, err := DecodeRequest(raw)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("decode error not ErrBadRequest: %v", err)
			}
			return
		}
		canon, key, _, err := Canonicalize(r)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("canonicalize error not ErrBadRequest: %v", err)
			}
			if strings.Contains(strings.ToLower(err.Error()), "panic") {
				t.Fatalf("rejection leaked a panic: %v", err)
			}
			return
		}
		canon2, key2, _, err := Canonicalize(canon)
		if err != nil {
			t.Fatalf("canonical form rejected on re-canonicalization: %v", err)
		}
		if key2 != key {
			t.Fatalf("canonicalization not idempotent for %s: key %s then %s", data, key, key2)
		}
		_ = canon2
	})
}

// TestCanonicalKeyFaultsInsensitiveToSpelling: semantically identical fault
// schedules hash identically — reordered events, the default drop policy
// spelled out versus omitted, port 0 explicit versus omitted. Faults belong
// in the cache key; only their spelling does not.
func TestCanonicalKeyFaultsInsensitiveToSpelling(t *testing.T) {
	terse := keyOf(t, `{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"rate":0.1},
		"faults":{"events":[{"cycle":2000,"kind":"link-down","router":5},{"cycle":4000,"kind":"link-up","router":5}]}}`)
	spellings := map[string]string{
		"events reordered": `{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"rate":0.1},
			"faults":{"events":[{"cycle":4000,"kind":"link-up","router":5},{"cycle":2000,"kind":"link-down","router":5}]}}`,
		"defaults filled": `{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"rate":0.1},
			"faults":{"drop":"drop","events":[{"cycle":2000,"kind":"link-down","router":5,"port":0},{"cycle":4000,"kind":"link-up","router":5,"port":0}]}}`,
		"kind case": `{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"rate":0.1},
			"faults":{"events":[{"cycle":2000,"kind":"LINK-DOWN","router":5},{"cycle":4000,"kind":"Link-Up","router":5}]}}`,
	}
	for name, raw := range spellings {
		if got := keyOf(t, raw); got != terse {
			t.Errorf("%s: key %s differs from terse form %s", name, got, terse)
		}
	}
}

// TestCanonicalKeyFaultsSensitiveToMeaning: any schedule difference — cycle,
// kind, target, port, drop policy, or having a schedule at all — changes the
// cache key, so a faulted run can never be served a fault-free cached result.
func TestCanonicalKeyFaultsSensitiveToMeaning(t *testing.T) {
	base := `{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"rate":0.1},
		"faults":{"events":[{"cycle":2000,"kind":"link-down","router":5},{"cycle":4000,"kind":"link-up","router":5}]}}`
	variants := map[string]string{
		"no faults": `{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"rate":0.1}}`,
		"cycle": `{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"rate":0.1},
			"faults":{"events":[{"cycle":2001,"kind":"link-down","router":5},{"cycle":4000,"kind":"link-up","router":5}]}}`,
		"router": `{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"rate":0.1},
			"faults":{"events":[{"cycle":2000,"kind":"link-down","router":6},{"cycle":4000,"kind":"link-up","router":6}]}}`,
		"port": `{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"rate":0.1},
			"faults":{"events":[{"cycle":2000,"kind":"link-down","router":27,"port":2},{"cycle":4000,"kind":"link-up","router":27,"port":2}]}}`,
		"port vs east": `{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"rate":0.1},
			"faults":{"events":[{"cycle":2000,"kind":"link-down","router":27},{"cycle":4000,"kind":"link-up","router":27}]}}`,
		"kind": `{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"rate":0.1},
			"faults":{"events":[{"cycle":2000,"kind":"router-down","router":5},{"cycle":4000,"kind":"router-up","router":5}]}}`,
		"policy": `{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"rate":0.1},
			"faults":{"drop":"reroute","events":[{"cycle":2000,"kind":"link-down","router":5},{"cycle":4000,"kind":"link-up","router":5}]}}`,
		"extra window": `{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"rate":0.1},
			"faults":{"events":[{"cycle":2000,"kind":"link-down","router":5},{"cycle":4000,"kind":"link-up","router":5},
				{"cycle":6000,"kind":"link-down","router":5},{"cycle":7000,"kind":"link-up","router":5}]}}`,
	}
	baseKey := keyOf(t, base)
	seen := map[string]string{baseKey: "base"}
	for name, raw := range variants {
		k := keyOf(t, raw)
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collides with %s: key %s", name, prev, k)
		}
		seen[k] = name
	}
}

// TestCanonicalKeyEmptyFaults: an empty schedule is behaviorally identical to
// no schedule, so it must hash identically and the canonical spec must strip
// it entirely.
func TestCanonicalKeyEmptyFaults(t *testing.T) {
	absent := `{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"rate":0.1}}`
	empty := `{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"rate":0.1},"faults":{"events":[]}}`
	if k1, k2 := keyOf(t, absent), keyOf(t, empty); k1 != k2 {
		t.Errorf("empty fault schedule changed the cache key: %s vs %s", k1, k2)
	}
	canon, _, _, err := Canonicalize(mustDecode(t, empty))
	if err != nil {
		t.Fatal(err)
	}
	if canon.Spec.Faults != nil {
		t.Errorf("canonical spec carries an empty fault schedule: %+v", canon.Spec.Faults)
	}
}

// TestCanonicalizeRejectsFaults: hostile fault schedules fail closed with
// ErrBadRequest before reaching a worker — out-of-range targets, cycles
// outside the run, malformed down/up pairing, unwired ports, and schedules
// on topologies without fault support.
func TestCanonicalizeRejectsFaults(t *testing.T) {
	wrap := func(faults string) string {
		return `{"topology":"mesh8x8","scheme":"pseudo","workload":{"rate":0.1},"faults":` + faults + `}`
	}
	bad := map[string]string{
		"router out of range": wrap(`{"events":[{"cycle":10,"kind":"link-down","router":64},{"cycle":20,"kind":"link-up","router":64}]}`),
		"negative router":     wrap(`{"events":[{"cycle":10,"kind":"link-down","router":-1},{"cycle":20,"kind":"link-up","router":-1}]}`),
		"port out of range":   wrap(`{"events":[{"cycle":10,"kind":"link-down","router":0,"port":7},{"cycle":20,"kind":"link-up","router":0,"port":7}]}`),
		// Router 0 sits at the west edge of the mesh: port 1 (west) has no link.
		"unwired edge port": wrap(`{"events":[{"cycle":10,"kind":"link-down","router":0,"port":1},{"cycle":20,"kind":"link-up","router":0,"port":1}]}`),
		// Default horizon is warmup 1000 + measure 10000 = 11000 cycles.
		"past horizon":           wrap(`{"events":[{"cycle":11000,"kind":"link-down","router":5},{"cycle":11500,"kind":"link-up","router":5}]}`),
		"negative cycle":         wrap(`{"events":[{"cycle":-1,"kind":"link-down","router":5},{"cycle":20,"kind":"link-up","router":5}]}`),
		"down without up":        wrap(`{"events":[{"cycle":10,"kind":"link-down","router":5}]}`),
		"up without down":        wrap(`{"events":[{"cycle":10,"kind":"link-up","router":5}]}`),
		"duplicate event":        wrap(`{"events":[{"cycle":10,"kind":"link-down","router":5},{"cycle":10,"kind":"link-down","router":5}]}`),
		"down down up":           wrap(`{"events":[{"cycle":10,"kind":"link-down","router":5},{"cycle":20,"kind":"link-down","router":5},{"cycle":30,"kind":"link-up","router":5}]}`),
		"same-cycle toggle":      wrap(`{"events":[{"cycle":10,"kind":"link-down","router":5},{"cycle":10,"kind":"link-up","router":5}]}`),
		"unknown kind":           wrap(`{"events":[{"cycle":10,"kind":"meltdown","router":5},{"cycle":20,"kind":"link-up","router":5}]}`),
		"unknown policy":         wrap(`{"drop":"explode","events":[{"cycle":10,"kind":"link-down","router":5},{"cycle":20,"kind":"link-up","router":5}]}`),
		"router event with port": wrap(`{"events":[{"cycle":10,"kind":"router-down","router":5,"port":2},{"cycle":20,"kind":"router-up","router":5,"port":2}]}`),
		"faults on fbfly": `{"topology":"fbfly4x4x4","scheme":"pseudo","workload":{"rate":0.1},
			"faults":{"events":[{"cycle":10,"kind":"link-down","router":0},{"cycle":20,"kind":"link-up","router":0}]}}`,
	}
	for name, raw := range bad {
		r, err := DecodeRequest([]byte(raw))
		if err != nil {
			t.Errorf("%s: failed at decode (%v), want canonicalize-time rejection", name, err)
			continue
		}
		if _, _, _, err := Canonicalize(r); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err %v, want ErrBadRequest", name, err)
		} else if strings.Contains(strings.ToLower(err.Error()), "panic") {
			t.Errorf("%s: rejection leaked a panic: %v", name, err)
		}
	}
}

// TestCanonicalizeAcceptsFaults: a well-formed schedule survives to the
// materialized experiment with its events intact.
func TestCanonicalizeAcceptsFaults(t *testing.T) {
	raw := `{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"rate":0.1},
		"faults":{"drop":"reroute","events":[{"cycle":4000,"kind":"link-up","router":5},{"cycle":2000,"kind":"link-down","router":5}]}}`
	canon, _, exp, err := Canonicalize(mustDecode(t, raw))
	if err != nil {
		t.Fatal(err)
	}
	if exp.Faults == nil || len(exp.Faults.Events) != 2 {
		t.Fatalf("materialized experiment lost the fault schedule: %+v", exp.Faults)
	}
	if exp.Faults.Events[0].Cycle != 2000 || exp.Faults.Events[1].Cycle != 4000 {
		t.Errorf("schedule not canonically ordered: %+v", exp.Faults.Events)
	}
	if canon.Spec.Faults == nil || canon.Spec.Faults.Drop != "reroute" {
		t.Errorf("canonical spec lost the drop policy: %+v", canon.Spec.Faults)
	}
}
