// Package sweepapi turns one spec template plus a parameter grid into many
// cached simulation jobs — the batch front door of the nocd daemon.
//
// A sweep request is a template (the same wire format as a single job
// submission) and a set of axes, each axis a named parameter with a list of
// values:
//
//	{"template": {"topology":"mesh8x8","scheme":"baseline","va":"static",
//	              "workload":{"pattern":"uniform","rate":0.1}},
//	 "axes": {"scheme": ["baseline","pseudo","pseudo+s+b"],
//	          "rate":   [0.05, 0.1, 0.15, 0.2],
//	          "seed":   [1, 2, 3]}}
//
// Expansion is the cartesian product of the axes, enumerated in a
// deterministic order (axes sorted by name, values in the order given, last
// axis fastest), each point passed through the service's canonicalization —
// so every point lands on exactly the cache key a direct submission of that
// spec would, and the paper's figure grids (scheme × load × seed) become
// one request. The expansion is bounded: a grid over the limit is an
// explicit 400-mapped error, never a truncation. Results stream back as
// NDJSON as each point completes, and a sweep can be cancelled as a unit.
//
// An axis is a request field: its name is on a closed list of the wire
// format's scalar fields (axisFields) and each value is decoded onto the
// template as encoding/json decodes that field of a POST /jobs body, so it
// is typed and ranged as the field it sets. Parsing is hostile-input safe
// (FuzzSweepSpec): malformed JSON, duplicate or unknown axes, wrong-typed or
// out-of-range values all wrap service.ErrBadRequest, and nothing panics.
package sweepapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"pseudocircuit/internal/service"
)

// DefaultMaxPoints bounds a sweep expansion when the Config leaves it zero.
const DefaultMaxPoints = 4096

// Plan is a parsed, expanded, validated sweep: every grid point already
// canonicalized to the spec the cache is keyed by.
type Plan struct {
	Points []PlanPoint
}

// PlanPoint is one grid point of a sweep plan.
type PlanPoint struct {
	// Key is the canonical cache key (hex SHA-256) of the point's spec.
	Key string
	// Req is the canonical request; submitting it re-derives Key exactly.
	Req service.Request
}

// rawSweep is the wire shape; both members are parsed strictly afterwards.
type rawSweep struct {
	Template json.RawMessage `json:"template"`
	Axes     json.RawMessage `json:"axes"`
}

// axis is one parsed grid dimension. Values stay as the JSON text submitted
// (each a string or a number), to be decoded by the field they set.
type axis struct {
	name   string
	values []json.RawMessage
}

// axisFields is the closed list of request fields an axis may set: the
// scalar model parameters of the wire format. The value says whether the
// field is the workload's (true) or the spec's.
var axisFields = map[string]bool{
	"topology": false, "scheme": false, "routing": false, "va": false, "staticKey": false,
	"numVCs": false, "bufDepth": false, "seed": false, "warmup": false, "measure": false,
	"pattern": true, "rate": true, "packetSize": true, "benchmark": true,
}

func badf(format string, args ...any) error {
	return fmt.Errorf("%w: sweep: %s", service.ErrBadRequest, fmt.Sprintf(format, args...))
}

// Parse decodes a sweep request and expands it into a validated plan. Every
// failure — malformed JSON, unknown or duplicate axis, wrong-typed value,
// expansion over maxPoints, any point the service would reject — wraps
// service.ErrBadRequest. maxPoints <= 0 selects DefaultMaxPoints.
func Parse(data []byte, maxPoints int) (*Plan, error) {
	if maxPoints <= 0 {
		maxPoints = DefaultMaxPoints
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var raw rawSweep
	if err := dec.Decode(&raw); err != nil {
		return nil, badf("%v", err)
	}
	if dec.More() {
		return nil, badf("trailing data after sweep object")
	}
	if len(raw.Template) == 0 || string(raw.Template) == "null" {
		return nil, badf("missing template")
	}
	template, err := service.DecodeRequest(raw.Template)
	if err != nil {
		return nil, fmt.Errorf("%w (template)", err)
	}
	axes, err := parseAxes(raw.Axes)
	if err != nil {
		return nil, err
	}

	// Bound the product before materializing anything. The running product
	// is capped at maxPoints+1, so absurd grids cannot overflow the count.
	points := 1
	for _, ax := range axes {
		if len(ax.values) == 0 {
			return nil, badf("axis %q has no values", ax.name)
		}
		if points > maxPoints/len(ax.values) {
			return nil, badf("grid expands past the %d-point limit", maxPoints)
		}
		points *= len(ax.values)
	}

	plan := &Plan{Points: make([]PlanPoint, 0, points)}
	idx := make([]int, len(axes))
	for {
		req := template
		for i, ax := range axes {
			if err := applyAxis(&req, ax.name, ax.values[idx[i]]); err != nil {
				return nil, err
			}
		}
		canon, key, _, err := service.Canonicalize(req)
		if err != nil {
			return nil, fmt.Errorf("%w (point %s)", err, coord(axes, idx))
		}
		plan.Points = append(plan.Points, PlanPoint{Key: key, Req: canon})

		// Odometer increment, last axis fastest.
		i := len(axes) - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(axes[i].values) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return plan, nil
		}
	}
}

// coord renders one grid coordinate for error messages.
func coord(axes []axis, idx []int) string {
	var b bytes.Buffer
	for i, ax := range axes {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s=%s", ax.name, ax.values[idx[i]])
	}
	if b.Len() == 0 {
		return "template"
	}
	return b.String()
}

// parseAxes token-parses the axes object so duplicate names are detected
// (encoding/json silently keeps the last duplicate), returning axes sorted
// by name. A missing/null axes member yields no axes: the sweep is the
// template alone.
func parseAxes(raw json.RawMessage) ([]axis, error) {
	if len(raw) == 0 || string(raw) == "null" {
		return nil, nil
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	tok, err := dec.Token()
	if err != nil {
		return nil, badf("axes: %v", err)
	}
	if d, ok := tok.(json.Delim); !ok || d != '{' {
		return nil, badf("axes must be an object of value lists")
	}
	var axes []axis
	seen := map[string]bool{}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			return nil, badf("axes: %v", err)
		}
		name := tok.(string) // inside an object, keys are always strings
		if seen[name] {
			return nil, badf("duplicate axis %q", name)
		}
		seen[name] = true
		if _, ok := axisFields[name]; !ok {
			return nil, badf("unknown axis %q (have %v)", name, axisNames())
		}
		ax := axis{name: name}
		if err := dec.Decode(&ax.values); err != nil {
			return nil, badf("axis %q: %v", name, err)
		}
		for _, v := range ax.values {
			// null would decode as "leave the field alone", and no axis
			// field is a bool, a list or an object.
			if c := v[0]; c != '"' && c != '-' && (c < '0' || c > '9') {
				return nil, badf("axis %q: values must be strings or numbers, got %s", name, v)
			}
		}
		axes = append(axes, ax)
	}
	if _, err := dec.Token(); err != nil { // closing '}'
		return nil, badf("axes: %v", err)
	}
	if t, err := dec.Token(); err != io.EOF {
		return nil, badf("axes: trailing data %v %v", t, err)
	}
	sort.Slice(axes, func(i, j int) bool { return axes[i].name < axes[j].name })
	return axes, nil
}

// applyAxis sets one template field from an axis value, by decoding
// {"<name>": <value>} onto the part of the request that has the field.
func applyAxis(r *service.Request, name string, v json.RawMessage) error {
	var dst any = &r.Spec
	if axisFields[name] {
		dst = &r.Workload
	}
	if err := json.Unmarshal([]byte(`{"`+name+`":`+string(v)+`}`), dst); err != nil {
		return badf("axis %q: %v", name, err)
	}
	return nil
}

func axisNames() []string {
	names := make([]string, 0, len(axisFields))
	for n := range axisFields {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
