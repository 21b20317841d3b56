package sweep

import (
	"crypto/sha256"
	"encoding/csv"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
)

// OutcomeSummary is one compiler's outcome on one cell as it appears in
// sweep artifacts. It is the deterministic subset of the evaluation
// result: wall-clock compile time is deliberately excluded so the same
// grid always produces byte-identical artifacts.
type OutcomeSummary struct {
	Compiler    string  `json:"compiler"`
	Shuttles    int     `json:"shuttles"`
	Swaps       int     `json:"swaps"`
	Splits      int     `json:"splits"`
	Merges      int     `json:"merges"`
	Reorders    int     `json:"reorders,omitempty"`
	Rebalances  int     `json:"rebalances,omitempty"`
	Gates1Q     int     `json:"gates_1q"`
	Gates2Q     int     `json:"gates_2q"`
	DurationUS  float64 `json:"duration_us"`
	LogFidelity float64 `json:"log_fidelity"`
	Fidelity    float64 `json:"fidelity"`
}

// CellReport is one cell's aggregated outcome: the resolved scenario
// coordinates plus every compiler's summary, in the grid's compiler order.
// A failed cell carries Error and no outcomes.
type CellReport struct {
	Index        int              `json:"index"`
	ID           string           `json:"id"`
	Topology     string           `json:"topology"`
	Traps        int              `json:"traps"`
	Capacity     int              `json:"capacity"`
	CommCapacity int              `json:"comm_capacity"`
	Circuit      string           `json:"circuit"`
	Qubits       int              `json:"qubits,omitempty"`
	Gates2Q      int              `json:"gates_2q,omitempty"`
	Outcomes     []OutcomeSummary `json:"outcomes,omitempty"`
	Error        string           `json:"error,omitempty"`
}

// Report is the aggregated artifact of a sweep run: the normalized grid
// it expanded from plus one CellReport per cell in expansion order.
type Report struct {
	Grid  Grid         `json:"grid"`
	Cells []CellReport `json:"cells"`
}

// Failures counts cells that ended in error.
func (r *Report) Failures() int {
	n := 0
	for _, c := range r.Cells {
		if c.Error != "" {
			n++
		}
	}
	return n
}

// WriteJSON serializes the report as indented JSON. The encoding is
// deterministic — struct field order, slice order, and shortest-form
// floats — so identical runs produce byte-identical files.
func WriteJSON(w io.Writer, r *Report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("sweep: encode report: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// csvHeader is the column layout of WriteCSV.
var csvHeader = []string{
	"cell_id", "topology", "traps", "capacity", "comm_capacity", "circuit",
	"qubits", "gates_2q", "compiler", "shuttles", "swaps", "splits", "merges",
	"reorders", "rebalances", "duration_us", "log_fidelity", "fidelity", "error",
}

// WriteCSV renders the report as one row per (cell, compiler); failed
// cells contribute a single row with the error column set. Like WriteJSON
// the output is deterministic.
func WriteCSV(w io.Writer, r *Report) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, c := range r.Cells {
		base := []string{
			c.ID, c.Topology, strconv.Itoa(c.Traps), strconv.Itoa(c.Capacity),
			strconv.Itoa(c.CommCapacity), c.Circuit,
			strconv.Itoa(c.Qubits), strconv.Itoa(c.Gates2Q),
		}
		if c.Error != "" {
			row := append(append([]string(nil), base...),
				"", "", "", "", "", "", "", "", "", "", c.Error)
			if err := cw.Write(row); err != nil {
				return err
			}
			continue
		}
		for _, o := range c.Outcomes {
			row := append(append([]string(nil), base...),
				o.Compiler, strconv.Itoa(o.Shuttles), strconv.Itoa(o.Swaps),
				strconv.Itoa(o.Splits), strconv.Itoa(o.Merges),
				strconv.Itoa(o.Reorders), strconv.Itoa(o.Rebalances),
				ff(o.DurationUS), ff(o.LogFidelity), ff(o.Fidelity), "")
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// Hash returns a stable content address of a grid: the hex SHA-256 of the
// canonical JSON of its normalized form. Resumable runs use it to detect
// that a directory belongs to a different grid.
func Hash(g Grid) (string, error) {
	data, err := json.Marshal(g.normalize())
	if err != nil {
		return "", fmt.Errorf("sweep: hash grid: %w", err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
