package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// experimentsTable returns the rows of the first markdown table under the
// EXPERIMENTS.md section whose heading starts with heading: the header
// cells, then circuit → cells (circuit and frags columns included).
func experimentsTable(t *testing.T, heading string) (header []string, rows map[string][]string) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	cells := func(line string) []string {
		parts := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		for i := range parts {
			parts[i] = strings.TrimSpace(parts[i])
		}
		return parts
	}
	in := false
	rows = map[string][]string{}
	for _, line := range strings.Split(string(data), "\n") {
		switch {
		case strings.HasPrefix(line, "## "):
			if in {
				return header, rows
			}
			in = strings.HasPrefix(line, "## "+heading)
		case !in || !strings.HasPrefix(line, "|"):
		case header == nil:
			header = cells(line)
		case strings.HasPrefix(line, "|--"):
		default:
			c := cells(line)
			rows[c[0]] = c
		}
	}
	if header == nil {
		t.Fatalf("EXPERIMENTS.md has no table under %q", heading)
	}
	return header, rows
}

// countsCell parses a "cn/st (s)" table cell, ignoring the CPU column and
// any footnote mark.
func countsCell(cell string) (counts [2]int, err error) {
	_, err = fmt.Sscanf(cell, "%d/%d", &counts[0], &counts[1])
	return counts, err
}

// checkExperimentsRow fails when the EXPERIMENTS.md row of circuit
// disagrees with a golden count in the column whose header starts with
// engine.
func checkExperimentsRow(t *testing.T, table string, header []string, rows map[string][]string, circuit, engine string, want [2]int) {
	t.Helper()
	row, ok := rows[circuit]
	if !ok {
		t.Errorf("%s: no %s row", table, circuit)
		return
	}
	for i, h := range header {
		if !strings.HasPrefix(h, engine+" ") || i >= len(row) {
			continue
		}
		got, err := countsCell(row[i])
		if err != nil {
			t.Errorf("%s %s %s: cell %q: %v", table, circuit, engine, row[i], err)
		} else if got != want {
			t.Errorf("%s %s %s reads %d/%d, the golden counts are %d/%d — regenerate the table",
				table, circuit, engine, got[0], got[1], want[0], want[1])
		}
		return
	}
	t.Errorf("%s: no %s column", table, engine)
}

// TestExperimentsTablesMatchGoldens keeps EXPERIMENTS.md's Table 1 and
// Table 2 from drifting away from the code: every circuit pinned by
// goldenCounts or goldenTable2 must read the golden cn/st there.
func TestExperimentsTablesMatchGoldens(t *testing.T) {
	column := map[Algorithm]string{
		AlgILP: "ILP", AlgSDPBacktrack: "SDP+BT", AlgSDPGreedy: "SDP+Greedy", AlgLinear: "Linear",
	}
	header, rows := experimentsTable(t, "Table 1")
	for circuit, engines := range goldenCounts {
		for alg, want := range engines {
			checkExperimentsRow(t, "Table 1", header, rows, circuit, column[alg], want)
		}
	}
	header, rows = experimentsTable(t, "Table 2")
	for circuit, want := range goldenTable2 {
		checkExperimentsRow(t, "Table 2", header, rows, circuit, column[AlgSDPBacktrack], want)
	}
}
