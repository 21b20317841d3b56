package sweep

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// This file is the CLI vocabulary for sweep grids: the axis flags of
// cmd/muzzlesweep. A grid given by flags expands and hashes exactly like
// the same grid given as JSON, so both reach the same resumable artifact
// directory.

// GridFromFlags synthesizes a Grid from the comma-separated axis flag
// values used by the sweep CLI: topologies ("line:6,ring:6,grid:2x3"),
// trap capacities ("17"), communication capacities ("2"), a compiler set
// ("" = registry default pair), and circuits ("paper,qft:16,
// random:Q:G:SEED[:COUNT]").
func GridFromFlags(topoList, capList, commList, compilers, circuits string) (Grid, error) {
	var g Grid
	for _, spec := range SplitList(topoList) {
		ts, err := ParseTopoFlag(spec)
		if err != nil {
			return g, err
		}
		g.Topologies = append(g.Topologies, ts)
	}
	var err error
	if g.Capacities, err = ParseIntList("-capacities", capList); err != nil {
		return g, err
	}
	if g.CommCapacities, err = ParseIntList("-comm", commList); err != nil {
		return g, err
	}
	if compilers != "" {
		g.Compilers = SplitList(compilers)
	}
	for _, spec := range SplitList(circuits) {
		cs, err := ParseCircuitFlag(spec)
		if err != nil {
			return g, err
		}
		g.Circuits = append(g.Circuits, cs)
	}
	return g, nil
}

// DecodeGrid strictly decodes one JSON grid object: unknown fields and
// trailing data are errors, matching the daemon's POST /v1/sweeps.
func DecodeGrid(r io.Reader, g *Grid) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(g); err != nil {
		return err
	}
	if dec.More() {
		return fmt.Errorf("trailing data after grid object")
	}
	return nil
}

// SplitList splits a comma-separated flag value, trimming blanks.
func SplitList(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}

// ParseIntList parses a comma-separated integer axis; flagName labels
// errors.
func ParseIntList(flagName, s string) ([]int, error) {
	var out []int
	for _, part := range SplitList(s) {
		v, err := strconv.Atoi(part)
		if err != nil {
			return nil, fmt.Errorf("%s: bad value %q", flagName, part)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseTopoFlag parses line:N, ring:N, or grid:RxC.
func ParseTopoFlag(s string) (TopologySpec, error) {
	family, arg, ok := strings.Cut(s, ":")
	if !ok {
		return TopologySpec{}, fmt.Errorf("-topo: %q should be line:N, ring:N, or grid:RxC", s)
	}
	switch family {
	case FamilyLine, FamilyRing:
		n, err := strconv.Atoi(arg)
		if err != nil {
			return TopologySpec{}, fmt.Errorf("-topo: bad trap count in %q", s)
		}
		return TopologySpec{Family: family, Traps: n}, nil
	case FamilyGrid:
		rs, cs, ok := strings.Cut(arg, "x")
		if !ok {
			return TopologySpec{}, fmt.Errorf("-topo: grid wants RxC, got %q", s)
		}
		rows, err1 := strconv.Atoi(rs)
		cols, err2 := strconv.Atoi(cs)
		if err1 != nil || err2 != nil {
			return TopologySpec{}, fmt.Errorf("-topo: bad grid dimensions in %q", s)
		}
		return TopologySpec{Family: family, Rows: rows, Cols: cols}, nil
	default:
		return TopologySpec{}, fmt.Errorf("-topo: unknown family %q (custom topologies need -grid)", family)
	}
}

// ParseCircuitFlag parses paper, qft:N, or random:Q:G:SEED[:COUNT].
func ParseCircuitFlag(s string) (CircuitSpec, error) {
	kind, rest, _ := strings.Cut(s, ":")
	switch kind {
	case CircuitPaper:
		if rest != "" {
			return CircuitSpec{}, fmt.Errorf("-circuits: paper takes no arguments, got %q", s)
		}
		return CircuitSpec{Kind: kind}, nil
	case CircuitQFT:
		n, err := strconv.Atoi(rest)
		if err != nil {
			return CircuitSpec{}, fmt.Errorf("-circuits: qft wants qft:N, got %q", s)
		}
		return CircuitSpec{Kind: kind, Qubits: n}, nil
	case CircuitRandom:
		parts := strings.Split(rest, ":")
		if len(parts) != 3 && len(parts) != 4 {
			return CircuitSpec{}, fmt.Errorf("-circuits: random wants random:Q:G:SEED[:COUNT], got %q", s)
		}
		nums := make([]int64, len(parts))
		for i, p := range parts {
			v, err := strconv.ParseInt(p, 10, 64)
			if err != nil {
				return CircuitSpec{}, fmt.Errorf("-circuits: bad number %q in %q", p, s)
			}
			nums[i] = v
		}
		spec := CircuitSpec{Kind: kind, Qubits: int(nums[0]), Gates2Q: int(nums[1]), Seed: nums[2]}
		if len(nums) == 4 {
			spec.Count = int(nums[3])
		}
		return spec, nil
	default:
		return CircuitSpec{}, fmt.Errorf("-circuits: unknown kind %q (want paper, qft:N, random:Q:G:SEED[:COUNT])", kind)
	}
}
