// EXPERIMENTS.md and DESIGN.md quote the committed full-size run rather
// than copying numbers by hand: every table they show is checked against the
// file here, and CI regenerates the file and diffs it.
package pseudocircuit_test

import (
	"fmt"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// fullRun is the output of `go run ./cmd/sweep -exp all`, committed.
const fullRun = "internal/experiments/testdata/full.txt"

// tablesOf splits sweep output into its tables by ID: each is its
// "== <id>: <title> ==" line, its column header and its rows, up to the
// blank line that ends it.
func tablesOf(out string) map[string][]string {
	tables := map[string][]string{}
	for _, block := range strings.Split(strings.TrimSpace(out), "\n\n") {
		lines := strings.Split(block, "\n")
		if id, ok := tableID(lines[0]); ok {
			tables[id] = lines
		}
	}
	return tables
}

// tableID is the ID a table's title line names.
func tableID(line string) (string, bool) {
	inner, ok := strings.CutPrefix(line, "== ")
	if !ok || !strings.HasSuffix(inner, " ==") {
		return "", false
	}
	id, _, ok := strings.Cut(inner, ": ")
	return id, ok && id != "" && !strings.Contains(id, " ")
}

// quotes returns the fenced blocks of a markdown document that open with a
// "== " line: the ones that claim to be a table of the run.
func quotes(doc string) [][]string {
	var blocks [][]string
	var block []string
	fenced := false
	for _, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(line, "```"):
			if fenced && len(block) > 0 && strings.HasPrefix(block[0], "== ") {
				blocks = append(blocks, block)
			}
			fenced, block = !fenced, nil
		case fenced:
			block = append(block, line)
		}
	}
	return blocks
}

// checkQuote says how a quoted block differs from the run: it must be the
// table's title line, its column header, then any of its rows in the
// table's order, each byte for byte.
func checkQuote(block []string, tables map[string][]string) error {
	id, ok := tableID(block[0])
	if !ok {
		return fmt.Errorf("%q is not a table's title line", block[0])
	}
	table, ok := tables[id]
	switch {
	case !ok:
		return fmt.Errorf("table %s is not in %s", id, fullRun)
	case block[0] != table[0]:
		return fmt.Errorf("table %s: title line %q, the run's is %q", id, block[0], table[0])
	case len(block) < 2 || block[1] != table[1]:
		return fmt.Errorf("table %s: the second line must be its column header %q", id, table[1])
	}
	next := 2 // rows before next are used up
	for _, row := range block[2:] {
		if i := slices.Index(table[next:], row); i >= 0 {
			next += i + 1
			continue
		}
		if slices.Contains(table[2:next], row) {
			return fmt.Errorf("table %s: row %q is out of order", id, row)
		}
		label, _, _ := strings.Cut(row, "  ") // the first column: cells are two spaces apart at least
		for _, want := range table[2:] {
			if l, _, _ := strings.Cut(want, "  "); l == label {
				return fmt.Errorf("table %s: row %q drifted; the run has %q", id, row, want)
			}
		}
		return fmt.Errorf("table %s: row %q is not one of its rows", id, row)
	}
	return nil
}

// prNumber is how a document names a change by its number: "PR 12", "PRs 46–47".
var prNumber = regexp.MustCompile(`\bPRs? [0-9]`)

// narration returns the lines of doc that name a PR outside its history
// note, the paragraph that opens with "**History.**": the rest of a design
// document says what is, not how it came to be.
func narration(doc string) []string {
	var found []string
	history := false
	for i, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(line, "**History.**"):
			history = true
		case line == "":
			history = false
		}
		if !history && prNumber.MatchString(line) {
			found = append(found, fmt.Sprintf("line %d: %q", i+1, line))
		}
	}
	return found
}

// TestExperimentsQuoteTheFullRun: EXPERIMENTS.md and DESIGN.md each quote
// the committed full-size run, and every table they show is one of its
// tables, as printed. DESIGN.md names a PR only in its history note.
func TestExperimentsQuoteTheFullRun(t *testing.T) {
	read := func(path string) string {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	tables := tablesOf(read(fullRun))
	for _, doc := range []string{"EXPERIMENTS.md", "DESIGN.md"} {
		blocks := quotes(read(doc))
		if len(blocks) == 0 {
			t.Errorf("%s quotes no table", doc)
		}
		for _, block := range blocks {
			if err := checkQuote(block, tables); err != nil {
				t.Errorf("%s: %v", doc, err)
			}
		}
	}
	for _, line := range narration(read("DESIGN.md")) {
		t.Errorf("DESIGN.md names a PR outside its history note, %s", line)
	}

	t.Run("checker sees each", func(t *testing.T) {
		run := tablesOf(`== fig0: A figure ==
benchmark  Pseudo  Pseudo+B
fma3d      3.8%    5.4%
mgrid      -1.1%   4.2%
average    1.4%    4.8%

== other: Another ==
x  y
1  2
`)
		const title, header = "== fig0: A figure ==", "benchmark  Pseudo  Pseudo+B"
		for _, tc := range []struct {
			name  string
			block []string
			want  string // in the error; "" = the quote holds
		}{
			{"whole table", []string{title, header, "fma3d      3.8%    5.4%", "mgrid      -1.1%   4.2%", "average    1.4%    4.8%"}, ""},
			{"rows skipped", []string{title, header, "average    1.4%    4.8%"}, ""},
			{"header only", []string{title, header}, ""},
			{"drifted cell", []string{title, header, "mgrid      -1.0%   4.2%"}, "drifted"},
			{"unknown table", []string{"== fig99: A figure ==", header}, "not in"},
			{"rows out of order", []string{title, header, "mgrid      -1.1%   4.2%", "fma3d      3.8%    5.4%"}, "out of order"},
			{"row not in the table", []string{title, header, "radix      2.7%    5.8%"}, "not one of its rows"},
			{"row repeated", []string{title, header, "fma3d      3.8%    5.4%", "fma3d      3.8%    5.4%"}, "out of order"},
			{"another table's row", []string{title, header, "1  2"}, "not one of its rows"},
			{"title drifted", []string{"== fig0: A figure, retitled ==", header}, "title line"},
			{"no header", []string{title, "fma3d      3.8%    5.4%"}, "column header"},
			{"not a title line", []string{"== fig0 A figure"}, "not a table's title line"},
		} {
			err := checkQuote(tc.block, run)
			switch {
			case tc.want == "" && err != nil:
				t.Errorf("%s: %v", tc.name, err)
			case tc.want != "" && (err == nil || !strings.Contains(err.Error(), tc.want)):
				t.Errorf("%s: err %v, want one saying %q", tc.name, err, tc.want)
			}
		}
		doc := "text\n```\n" + title + "\n" + header + "\n```\n```sh\ngo run ./cmd/sweep\n```\n"
		if got := quotes(doc); len(got) != 1 || len(got[0]) != 2 {
			t.Errorf("quotes found %q, want the one fenced table", got)
		}
		if got := quotes("text\n```sh\ngo run ./cmd/sweep\n```\n== fig0: A figure ==\n"); len(got) != 0 {
			t.Errorf("quotes found %q in a document that fences no table", got)
		}

		history := "**History.** PR 12 added it,\nand PRs 13–14 moved it.\n\nIt is one function.\n"
		if got := narration(history); len(got) != 0 {
			t.Errorf("narration flagged the history note: %q", got)
		}
		if got := narration(history + "PR 15 made it faster.\n\n**History.** PR 16.\n"); len(got) != 1 || !strings.Contains(got[0], "line 5") {
			t.Errorf("narration found %q, want line 5 alone", got)
		}
	})
}
