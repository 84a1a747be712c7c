package repro_test

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// EXPERIMENTS.md quotes tool output in fenced blocks. Each such block
// carries, on the line above its opening fence, a marker naming the command
// it quotes — an IDENTITY.txt output name such as
//
//	<!-- chkbench -quick -exp domino -->
//
// — and must be an excerpt of that command's stdout: its lines, in order, are
// a subsequence of the output's lines. Rows may be dropped; a line may not be
// edited, so no column, digit or padding changes. Trailing blanks are
// ignored on both sides. TestIdentity holds every block to the bytes it
// renders for its own section, so quick blocks are checked in tier-1 and
// full-size ones under `make identical`. Fences with an info string (```sh)
// are commands, not output, and carry no marker.
const experimentsDoc = "EXPERIMENTS.md"

var blockMarker = regexp.MustCompile(`^<!-- (.+) -->$`)

// docBlock is one fenced output block.
type docBlock struct {
	cmd   string   // the marker's command: an IDENTITY.txt output name
	line  int      // 1-based line of the opening fence
	lines []string // the block's content
}

// docBlocks returns the output blocks of a markdown text, or an error naming
// the first one without a marker.
func docBlocks(text string) ([]docBlock, error) {
	lines := strings.Split(text, "\n")
	var blocks []docBlock
	for i := 0; i < len(lines); i++ {
		fence := lines[i]
		if !strings.HasPrefix(fence, "```") {
			continue
		}
		end := i + 1
		for end < len(lines) && !strings.HasPrefix(lines[end], "```") {
			end++
		}
		if fence == "```" {
			var m []string
			if i > 0 {
				m = blockMarker.FindStringSubmatch(lines[i-1])
			}
			if m == nil {
				return nil, fmt.Errorf("line %d: output block without a <!-- COMMAND --> marker above it", i+1)
			}
			blocks = append(blocks, docBlock{cmd: m[1], line: i + 1, lines: lines[i+1 : end]})
		}
		i = end
	}
	return blocks, nil
}

// checkExcerpt returns nil when every line of b is a line of out, in order,
// and otherwise an error naming the file, the marker, the first block line
// it could not place and the command that regenerates the output.
func checkExcerpt(file string, b docBlock, out []byte) error {
	have := strings.Split(string(out), "\n")
	j := 0
	for k, l := range b.lines {
		l = strings.TrimRight(l, " \t")
		for j < len(have) && strings.TrimRight(have[j], " \t") != l {
			j++
		}
		if j == len(have) {
			return fmt.Errorf("%s:%d: block <!-- %s --> is not an excerpt of that output; its line %d is not there (in order):\n  %s\nregenerate: go run ./cmd/%s",
				file, b.line, b.cmd, k+1, l, b.cmd)
		}
		j++
	}
	return nil
}

// checkDocBlocks holds EXPERIMENTS.md's output blocks to the outputs one
// TestIdentity section rendered. A block whose command belongs to the other
// section must still name an output line of IDENTITY.txt.
func checkDocBlocks(t *testing.T, outputs map[string][]byte, sections map[string][]string) {
	t.Helper()
	text, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	blocks, err := docBlocks(string(text))
	if err != nil {
		t.Fatalf("%s:%v", experimentsDoc, err)
	}
	pinned := map[string]bool{}
	for _, lines := range sections {
		for _, l := range lines {
			if strings.Contains(l, "\tsha256=") {
				pinned[identityKey(l)] = true
			}
		}
	}
	for _, b := range blocks {
		out, ok := outputs[b.cmd]
		switch {
		case ok:
			if err := checkExcerpt(experimentsDoc, b, out); err != nil {
				t.Error(err)
			}
		case !pinned[b.cmd]:
			t.Errorf("%s:%d: block <!-- %s --> names no output IDENTITY.txt pins", experimentsDoc, b.line, b.cmd)
		}
	}
}

// TestDocBlockExcerpt pins the excerpt rule on a small output.
func TestDocBlockExcerpt(t *testing.T) {
	out := []byte("E0: demo\nScheme  Rounds  Exec\n------  ------  -----\nA            1  1.50s\nB           12  2.25s\n\nprose\n")
	for _, tc := range []struct {
		name  string
		block []string
		miss  string // the first line the check cannot place; "" if it passes
	}{
		{"whole output", strings.Split(strings.TrimSuffix(string(out), "\n"), "\n"), ""},
		{"rows dropped", []string{"Scheme  Rounds  Exec", "B           12  2.25s"}, ""},
		{"trailing blanks", []string{"A            1  1.50s  "}, ""},
		{"column dropped", []string{"Scheme  Rounds  Exec", "A  1.50s"}, "A  1.50s"},
		{"digit changed", []string{"Scheme  Rounds  Exec", "A            1  1.51s"}, "A            1  1.51s"},
		{"rows reordered", []string{"B           12  2.25s", "A            1  1.50s"}, "A            1  1.50s"},
		{"padding changed", []string{"A 1 1.50s"}, "A 1 1.50s"},
	} {
		b := docBlock{cmd: "chkbench -quick -exp demo", line: 7, lines: tc.block}
		err := checkExcerpt("DOC.md", b, out)
		if (err == nil) != (tc.miss == "") {
			t.Errorf("%s: err = %v, want a failure: %v", tc.name, err, tc.miss != "")
		}
		if err != nil {
			for _, want := range []string{"DOC.md:7", "<!-- chkbench -quick -exp demo -->", "\n  " + tc.miss + "\n", "go run ./cmd/chkbench -quick -exp demo"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("%s: error does not name %q:\n%v", tc.name, want, err)
				}
			}
		}
	}

	doc := "text\n<!-- chkbench -table 1 -->\n```\nrow\n```\n```sh\ngo test ./...\n```\n```\nunmarked\n```\n"
	if _, err := docBlocks(doc); err == nil || !strings.Contains(err.Error(), "line 9") {
		t.Errorf("unmarked block: err = %v, want one naming line 9", err)
	}
	blocks, err := docBlocks(strings.TrimSuffix(doc, "```\nunmarked\n```\n"))
	if err != nil || len(blocks) != 1 || blocks[0].cmd != "chkbench -table 1" || blocks[0].line != 3 || len(blocks[0].lines) != 1 {
		t.Errorf("docBlocks = %+v, %v; want the one marked block", blocks, err)
	}
}

// referenceDocs are the documents whose references TestDocReferences checks.
var referenceDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

var (
	docPath    = regexp.MustCompile(`(?:^|[^\w/.-])((?:internal|cmd|examples|benchmark)/[\w./-]*)`)
	docGoRun   = regexp.MustCompile(`go run (?:-\S+ )*\./([\w./-]+)`)
	docTestFns = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z_]\w*`)
)

// TestDocReferences keeps the documents on the tree: every repository path
// and `go run` target they name exists, and every test, benchmark, fuzz
// target or example they name is a prefix of a function in a _test.go file,
// as `go test -run` would match it.
func TestDocReferences(t *testing.T) {
	fset := token.NewFileSet()
	var fns []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir // .git, build outputs
		}
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil {
				fns = append(fns, fn.Name.Name)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	exists := func(path string) bool {
		_, err := os.Stat(strings.TrimRight(path, "./"))
		return err == nil
	}
	for _, doc := range referenceDocs {
		f, err := os.Open(doc)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for n := 1; sc.Scan(); n++ {
			line := sc.Text()
			for _, m := range docPath.FindAllStringSubmatch(line, -1) {
				if !exists(m[1]) {
					t.Errorf("%s:%d names %s, which does not exist", doc, n, m[1])
				}
			}
			for _, m := range docGoRun.FindAllStringSubmatch(line, -1) {
				if !exists(m[1]) {
					t.Errorf("%s:%d runs ./%s, which does not exist", doc, n, m[1])
				}
			}
			for _, name := range docTestFns.FindAllString(line, -1) {
				found := false
				for _, fn := range fns {
					if strings.HasPrefix(fn, name) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("%s:%d names %s, which no test function starts with", doc, n, name)
				}
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
}
