package cli

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"unicode"
)

// TestDocsNameRealFlags: every flag a documented `./cmd/<name>` command
// line passes appears in that command's -h listing
// (testdata/golden/flags-<name>.txt), so a removed or renamed flag cannot
// live on in the docs. A line ending in `\` continues on the next; a
// command line ends at a comment, a redirect, a pipe or the end of
// inline code. Every `./examples/<name>` the docs name must be a
// directory of the repository.
func TestDocsNameRealFlags(t *testing.T) {
	docs := []string{"README.md", "docs/MODEL.md", "EXPERIMENTS.md", "DESIGN.md", ".claude/skills/verify/SKILL.md"}
	invocation := regexp.MustCompile(`\./cmd/(\w+)`)
	example := regexp.MustCompile(`\./examples/(\w+)`)
	for _, doc := range docs {
		b, err := os.ReadFile(filepath.Join("..", "..", doc))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(string(b), "\n")
		for i := 0; i < len(lines); i++ {
			at, line := i+1, lines[i]
			for strings.HasSuffix(line, `\`) && i+1 < len(lines) {
				i++
				line = strings.TrimSuffix(line, `\`) + " " + lines[i]
			}
			for _, m := range example.FindAllStringSubmatch(line, -1) {
				if fi, err := os.Stat(filepath.Join("..", "..", "examples", m[1])); err != nil || !fi.IsDir() {
					t.Errorf("%s:%d: ./examples/%s is no example directory", doc, at, m[1])
				}
			}
			ms := invocation.FindAllStringSubmatchIndex(line, -1)
			for k, m := range ms {
				name, rest := line[m[2]:m[3]], line[m[1]:]
				if k+1 < len(ms) {
					rest = line[m[1]:ms[k+1][0]]
				}
				if end := strings.IndexAny(rest, "#>|`;&"); end >= 0 {
					rest = rest[:end]
				}
				listing, err := os.ReadFile(filepath.Join("testdata", "golden", "flags-"+name+".txt"))
				if err != nil {
					t.Errorf("%s:%d: no flag listing for ./cmd/%s: %v", doc, at, name, err)
					continue
				}
				for _, f := range strings.Fields(rest) {
					// A negative number is no flag, and -h is not listed.
					flag, _, _ := strings.Cut(strings.TrimLeft(f, "-"), "=")
					if f[0] != '-' || flag == "" || !unicode.IsLetter(rune(flag[0])) || flag == "h" || flag == "help" {
						continue
					}
					if !strings.Contains(string(listing), "\n  -"+flag+" ") && !strings.Contains(string(listing), "\n  -"+flag+"\n") {
						t.Errorf("%s:%d: ./cmd/%s has no flag -%s", doc, at, name, flag)
					}
				}
			}
		}
	}
}
