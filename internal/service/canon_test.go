package service

import (
	"encoding/json"
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"pseudocircuit/noc"
)

func keyOf(t *testing.T, raw string) string {
	t.Helper()
	r, err := DecodeRequest([]byte(raw))
	if err != nil {
		t.Fatalf("decode %s: %v", raw, err)
	}
	_, key, _, err := Canonicalize(r)
	if err != nil {
		t.Fatalf("canonicalize %s: %v", raw, err)
	}
	return key
}

// TestCanonicalKeyInsensitiveToSpelling: semantically identical specs hash
// identically — reordered fields, defaults spelled out versus omitted,
// case-insensitive names, abbreviated pattern names.
func TestCanonicalKeyInsensitiveToSpelling(t *testing.T) {
	terse := keyOf(t, `{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"rate":0.1}}`)
	spellings := map[string]string{
		"reordered fields": `{"workload":{"rate":0.1},"scheme":"pseudo+s+b","topology":"mesh8x8"}`,
		"defaults filled": `{"topology":"mesh8x8","scheme":"pseudo+s+b","routing":"xy","va":"dynamic",
			"staticKey":"destination","numVCs":4,"bufDepth":4,"seed":1,"warmup":1000,"measure":10000,
			"workload":{"kind":"synthetic","pattern":"uniform","rate":0.1,"packetSize":5}}`,
		"case and aliases": `{"topology":"mesh8x8","scheme":"PSEUDO+S+B","routing":"XY",
			"workload":{"pattern":"UR","rate":0.1}}`,
	}
	for name, raw := range spellings {
		if got := keyOf(t, raw); got != terse {
			t.Errorf("%s: key %s differs from terse form %s", name, got, terse)
		}
	}
}

// TestCanonicalKeySensitiveToMeaning: anything that changes the simulation
// changes the key.
func TestCanonicalKeySensitiveToMeaning(t *testing.T) {
	base := `{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"rate":0.1}}`
	variants := map[string]string{
		"seed":      `{"topology":"mesh8x8","scheme":"pseudo+s+b","seed":2,"workload":{"rate":0.1}}`,
		"scheme":    `{"topology":"mesh8x8","scheme":"pseudo","workload":{"rate":0.1}}`,
		"topology":  `{"topology":"mesh4x4","scheme":"pseudo+s+b","workload":{"rate":0.1}}`,
		"rate":      `{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"rate":0.2}}`,
		"pattern":   `{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"pattern":"transpose","rate":0.1}}`,
		"va":        `{"topology":"mesh8x8","scheme":"pseudo+s+b","va":"static","workload":{"rate":0.1}}`,
		"routing":   `{"topology":"mesh8x8","scheme":"pseudo+s+b","routing":"o1turn","workload":{"rate":0.1}}`,
		"numVCs":    `{"topology":"mesh8x8","scheme":"pseudo+s+b","numVCs":8,"workload":{"rate":0.1}}`,
		"measure":   `{"topology":"mesh8x8","scheme":"pseudo+s+b","measure":20000,"workload":{"rate":0.1}}`,
		"cmp":       `{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"kind":"cmp","benchmark":"specjbb"}}`,
		"benchmark": `{"topology":"mesh8x8","scheme":"pseudo+s+b","workload":{"kind":"cmp","benchmark":"fft"}}`,
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

func mustDecode(t *testing.T, raw string) Request {
	t.Helper()
	r, err := DecodeRequest([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestCanonicalIdempotent: canonicalizing a canonical request is a fixed
// point — same struct, same key.
func TestCanonicalIdempotent(t *testing.T) {
	r, err := DecodeRequest([]byte(`{"topology":"cmesh4x4x4","scheme":"pseudo+b","va":"static","workload":{"pattern":"bc","rate":0.05}}`))
	if err != nil {
		t.Fatal(err)
	}
	c1, k1, _, err := Canonicalize(r)
	if err != nil {
		t.Fatal(err)
	}
	c2, k2, _, err := Canonicalize(c1)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("canonicalization not idempotent: %s then %s", k1, k2)
	}
	if !reflect.DeepEqual(c1, c2) {
		t.Fatalf("canonical form not a fixed point:\n%+v\n%+v", c1, c2)
	}
}

// TestDecodeRequestStrict: unknown fields and trailing garbage are rejected
// at decode time with ErrBadRequest.
func TestDecodeRequestStrict(t *testing.T) {
	bad := []string{
		`{"topology":"mesh8x8","scheme":"pseudo","wrokload":{"rate":0.1}}`,             // typo field
		`{"topology":"mesh8x8","scheme":"pseudo","workers":4,"workload":{"rate":0.1}}`, // no such field
		`{"topology":"mesh8x8","scheme":"pseudo"} trailing`,
		`{"topology":`,
		`[1,2,3]`,
		``,
	}
	for _, raw := range bad {
		if _, err := DecodeRequest([]byte(raw)); !errors.Is(err, ErrBadRequest) {
			t.Errorf("DecodeRequest(%q) err = %v, want ErrBadRequest", raw, err)
		}
	}
}

// TestCanonicalizeRejects: hostile or nonsensical specs fail closed with
// ErrBadRequest (never a panic) before reaching a worker.
func TestCanonicalizeRejects(t *testing.T) {
	bad := map[string]string{
		"negative mesh dims": `{"topology":"mesh-4x-4","scheme":"pseudo","workload":{"rate":0.1}}`,
		"degenerate mesh":    `{"topology":"mesh1x1","scheme":"pseudo","workload":{"rate":0.1}}`,
		"huge mesh":          `{"topology":"mesh4096x4096","scheme":"pseudo","workload":{"rate":0.1}}`,
		"dimension over 64":  `{"topology":"mesh65x2","scheme":"pseudo","workload":{"rate":0.1}}`,
		"huge concentration": `{"topology":"cmesh4x4x4096","scheme":"pseudo","workload":{"rate":0.1}}`,
		"bare cmesh":         `{"topology":"cmesh","scheme":"pseudo","workload":{"rate":0.1}}`,
		"rate over 1":        `{"topology":"mesh8x8","scheme":"pseudo","workload":{"rate":1.5}}`,
		"zero rate":          `{"topology":"mesh8x8","scheme":"pseudo","workload":{}}`,
		"cmp plus synthetic": `{"topology":"mesh8x8","scheme":"pseudo","workload":{"kind":"cmp","benchmark":"fft","rate":0.1}}`,
		"cmp wrong size":     `{"topology":"mesh4x4","scheme":"pseudo","workload":{"kind":"cmp","benchmark":"fft"}}`,
		"synthetic w/ bench": `{"topology":"mesh8x8","scheme":"pseudo","workload":{"rate":0.1,"benchmark":"fft"}}`,
		"unknown kind":       `{"topology":"mesh8x8","scheme":"pseudo","workload":{"kind":"openloop","rate":0.1}}`,
		"evc on o1turn":      `{"topology":"mesh8x8","scheme":"baseline","useEVC":true,"routing":"o1turn","workload":{"rate":0.1}}`,
		"evc on mecs":        `{"topology":"mecs4x4x4","scheme":"baseline","useEVC":true,"workload":{"rate":0.1}}`,
		"evc with pseudo":    `{"topology":"mesh8x8","scheme":"pseudo","useEVC":true,"workload":{"rate":0.1}}`,
		"evc odd express":    `{"topology":"mesh8x8","scheme":"baseline","useEVC":true,"numVCs":6,"workload":{"rate":0.1}}`,
		"o1turn odd VCs":     `{"topology":"mesh8x8","scheme":"pseudo","routing":"o1turn","numVCs":3,"workload":{"rate":0.1}}`,
		"one-wide mesh":      `{"topology":"mesh1x8","scheme":"pseudo","workload":{"rate":0.1}}`,
		"zero concentration": `{"topology":"cmesh4x4x0","scheme":"pseudo","workload":{"rate":0.1}}`,
		"negative numVCs":    `{"topology":"mesh8x8","scheme":"pseudo","numVCs":-1,"workload":{"rate":0.1}}`,
		"too many VCs":       `{"topology":"mesh8x8","scheme":"pseudo","numVCs":65,"workload":{"rate":0.1}}`,
		"deep buffers":       `{"topology":"mesh8x8","scheme":"pseudo","bufDepth":1025,"workload":{"rate":0.1}}`,
		"negative measure":   `{"topology":"mesh8x8","scheme":"pseudo","measure":-5,"workload":{"rate":0.1}}`,
		"cycles overflow":    `{"topology":"mesh8x8","scheme":"pseudo","warmup":9223372036854775807,"measure":1,"workload":{"rate":0.1}}`,
		"radix over 64":      `{"topology":"fbfly40x40x1","scheme":"pseudo","workload":{"rate":0.1}}`,
		"oblong transpose":   `{"topology":"mesh8x4","scheme":"pseudo","workload":{"pattern":"transpose","rate":0.1}}`,
		"huge packets":       `{"topology":"mesh8x8","scheme":"pseudo","workload":{"rate":0.1,"packetSize":2000000000}}`,
		"packets over bound": `{"topology":"mesh8x8","scheme":"pseudo","workload":{"rate":0.1,"packetSize":1025}}`,
		"huge buffers":       `{"topology":"mesh64x64","scheme":"pseudo","numVCs":64,"bufDepth":1024,"workload":{"rate":0.1}}`,
		"buffers over bound": `{"topology":"cmesh2x2x13","scheme":"pseudo","numVCs":64,"bufDepth":1024,"workload":{"rate":0.1}}`,
		"nodes over bound":   `{"topology":"cmesh64x64x2","scheme":"pseudo","workload":{"rate":0.1}}`,
		"reliable too large": `{"topology":"mesh64x32","scheme":"pseudo","reliable":{},"workload":{"rate":0.1}}`,
	}
	for name, raw := range bad {
		r, err := DecodeRequest([]byte(raw))
		if err != nil {
			t.Errorf("%s: failed at decode (%v), want canonicalize-time rejection", name, err)
			continue
		}
		if _, _, _, err := Canonicalize(r); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err %v, want ErrBadRequest", name, err)
		}
		if err != nil && strings.Contains(strings.ToLower(err.Error()), "panic") {
			t.Errorf("%s: rejection leaked a panic: %v", name, err)
		}
	}
}

// TestCanonicalizeAcceptsAtTheBounds: the largest values the front door
// lets through still canonicalize. cmesh2x2x12 has 64 input ports, so 64 VCs
// × 1 024 flits is exactly MaxBufferSlots; one port more is rejected
// (TestCanonicalizeRejects, "buffers over bound").
func TestCanonicalizeAcceptsAtTheBounds(t *testing.T) {
	keyOf(t, `{"topology":"cmesh2x2x12","scheme":"pseudo","numVCs":64,"bufDepth":1024,
		"warmup":0,"measure":9999000,"workload":{"rate":0.1,"packetSize":1024}}`)
	keyOf(t, `{"topology":"mesh64x2","scheme":"pseudo","workload":{"rate":0.1}}`)
	keyOf(t, `{"topology":"mesh2x64","scheme":"pseudo","workload":{"rate":0.1}}`)
	keyOf(t, `{"topology":"mesh64x64","scheme":"pseudo","workload":{"rate":0.1}}`) // MaxNodes
	keyOf(t, `{"topology":"mesh32x32","scheme":"pseudo","reliable":{},"workload":{"rate":0.1}}`)
}

// TestCanonicalTopologyKeepsItsGrid: a key names one experiment. The
// canonical topology is the submitted one — kind, grid and concentration —
// so grids with the same router count never share a key (a name guessed
// from the router count once mapped mecs8x2x4 and mecs2x8x4 onto
// mecs4x4x4's cache entry).
func TestCanonicalTopologyKeepsItsGrid(t *testing.T) {
	seen := map[string]string{}
	for _, topo := range []string{
		"mesh8x2", "cmesh8x2x4", "mecs8x2x4", "mecs2x8x4", "fbfly2x8x4", "mecs5x3x4", "mecs4x4x4", "fbfly4x4x4",
	} {
		r := mustDecode(t, `{"topology":"`+topo+`","scheme":"pseudo+s+b","workload":{"rate":0.1}}`)
		canon, key, exp, err := Canonicalize(r)
		if err != nil {
			t.Fatalf("%s: %v", topo, err)
		}
		if canon.Spec.Topology != topo {
			t.Errorf("%s canonicalized to %s", topo, canon.Spec.Topology)
		}
		if back, err := noc.ParseTopology(canon.Spec.Topology); err != nil || back.Routers() != exp.Topology.Routers() {
			t.Errorf("%s: canonical name %s does not name the %d-router topology that runs (%v)",
				topo, canon.Spec.Topology, exp.Topology.Routers(), err)
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("%s and %s share key %s", topo, prev, key)
		}
		seen[key] = topo
	}
}

// TestCanonicalKeysPinned: the content address of a spec is a stored
// artefact — the disk store and every peer's cache are keyed by it — so it
// must not move under a refactor. testdata/canonical_keys.json was recorded
// at the commit before the spec path was reworked; a deliberate change of
// the encoding re-records it and says so in CHANGES.md.
func TestCanonicalKeysPinned(t *testing.T) {
	raw, err := os.ReadFile("testdata/canonical_keys.json")
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Name    string          `json:"name"`
		Request json.RawMessage `json:"request"`
		Key     string          `json:"key"`
	}
	if err := json.Unmarshal(raw, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) < 12 {
		t.Fatalf("only %d pinned keys", len(rows))
	}
	for _, row := range rows {
		if got := keyOf(t, string(row.Request)); got != row.Key {
			t.Errorf("%s: key %s, pinned %s", row.Name, got, row.Key)
		}
	}
}
