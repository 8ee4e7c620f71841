// README.md's Architecture tree is the one inventory of packages and
// commands (DESIGN.md §2 points to it), so it is held complete here.
package pseudocircuit_test

import (
	"errors"
	"os"
	"slices"
	"strings"
	"testing"
)

// treeEntries returns the paths README's Architecture tree names, one a line
// of its fenced block: an unindented first field that holds a "/", or an
// indented one that ends in "/", under the unindented directory above it.
// Any other line continues the description above it.
func treeEntries(readme string) ([]string, error) {
	_, section, ok := strings.Cut(readme, "\n## Architecture\n")
	if !ok {
		return nil, errors.New(`no "## Architecture" section`)
	}
	_, rest, ok := strings.Cut(section, "```\n")
	tree, _, closed := strings.Cut(rest, "```")
	if !ok || !closed {
		return nil, errors.New("the Architecture section fences no tree")
	}
	var entries []string
	parent := ""
	for _, line := range strings.Split(tree, "\n") {
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		name, indented := fields[0], line[0] == ' '
		switch {
		case indented && strings.HasSuffix(name, "/"):
			name = parent + name
		case indented || !strings.Contains(name, "/"):
			continue
		case strings.HasSuffix(name, "/"):
			parent = name
		}
		entries = append(entries, strings.TrimSuffix(name, "/"))
	}
	return entries, nil
}

// inventoryGaps says where the tree and the directories disagree: a
// directory with no line, or an internal/ or cmd/ line with no directory.
func inventoryGaps(entries, dirs []string) []string {
	var gaps []string
	for _, d := range dirs {
		if !slices.Contains(entries, d) {
			gaps = append(gaps, d+": missing from README's Architecture tree")
		}
	}
	for _, e := range entries {
		inScope := strings.HasPrefix(e, "internal/") || strings.HasPrefix(e, "cmd/")
		if inScope && !slices.Contains(dirs, e) {
			gaps = append(gaps, e+": in README's Architecture tree, but no such directory")
		}
	}
	return gaps
}

// TestREADMENamesEveryPackage: every directory under internal/ and cmd/ has
// a line in README's Architecture tree, and every such line a directory.
func TestREADMENamesEveryPackage(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := treeEntries(string(readme))
	if err != nil {
		t.Fatal(err)
	}
	var dirs []string
	for _, root := range []string{"internal", "cmd"} {
		des, err := os.ReadDir(root)
		if err != nil {
			t.Fatal(err)
		}
		for _, de := range des {
			if de.IsDir() {
				dirs = append(dirs, root+"/"+de.Name())
			}
		}
	}
	if len(dirs) < 20 {
		t.Fatalf("read %d directories; the walk missed the module", len(dirs))
	}
	for _, gap := range inventoryGaps(entries, dirs) {
		t.Error(gap)
	}

	t.Run("checker sees each", func(t *testing.T) {
		const readme = "# m\n\n## Architecture\n\n```\nnoc/      the API\ninternal/\n  sim/    the clock,\n          and/or more words\ncmd/tool  a command\n```\n"
		entries, err := treeEntries(readme)
		if err != nil {
			t.Fatal(err)
		}
		if got := inventoryGaps(entries, []string{"internal/sim", "cmd/tool"}); len(got) != 0 {
			t.Errorf("a complete tree: reported %q", got)
		}
		for want, dirs := range map[string][]string{
			"internal/store: missing":   {"internal/sim", "internal/store", "cmd/tool"},
			"cmd/tool: in README's":     {"internal/sim"},
			"internal/sim: in README's": {"cmd/tool"},
		} {
			if got := inventoryGaps(entries, dirs); len(got) != 1 || !strings.HasPrefix(got[0], want) {
				t.Errorf("dirs %q: reported %q, want one gap %q…", dirs, got, want)
			}
		}
		if _, err := treeEntries("# m\n\n## Architecture\n\nNo tree.\n"); err == nil {
			t.Error("a section without a fenced tree was read as one")
		}
	})
}
