// Command docscheck is `make docs-check`: it reads the prose documents
// named on its command line (README.md and DESIGN.md), takes every
// `backticked` token outside fenced blocks that has the shape of
// something the tree defines, and fails when the tree no longer defines
// it. Four shapes are checked, each the way a reader would grep for it:
//
//	`make target ...`    each target is a rule in the Makefile
//	`-flag`, `-flag v`   the name is defined by a flag set under cmd/ or internal/
//	`family_name_total`  a snake_case name under a metric family's prefix
//	                     (optionally with {labels} or a histogram suffix)
//	                     appears as a quoted string in the Go sources
//	`pkg.Identifier`     pkg is a package of this module and every name
//	                     after it is a word in that package's non-test files
//
// A package the module does not have (http.Server, sync.Pool) is the
// standard library's and is not checked. Run from the repository root.
package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
)

var (
	fenced   = regexp.MustCompile("(?s)```.*?```")
	ticked   = regexp.MustCompile("`([^`\n]+)`")
	makeRule = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	flagTok  = regexp.MustCompile(`^-([a-z][a-z0-9-]*)( .*)?$`)
	flagDef  = regexp.MustCompile(`\.(?:String|Int|Int64|Uint|Uint64|Bool|Duration|Float64|Func)(?:Var)?\((?:&?[\w.]+, )?"([a-z][a-z0-9-]*)"`)
	regCall  = regexp.MustCompile(`\.(?:Counter|Gauge|CounterFunc|GaugeFunc|Histogram)\(\s*"([a-z]+)_`)
	metric   = regexp.MustCompile(`^([a-z][a-z0-9]*)(?:_[a-z0-9]+)+$`)
	identTok = regexp.MustCompile(`^\*?([a-z][a-z0-9]*)\.((?:\(\*?[A-Z]\w*\)|[A-Z]\w*)(?:\.\w+)*)$`)
	callArgs = regexp.MustCompile(`\([^*)][^)]*\)|\(\)`)
	word     = regexp.MustCompile(`\w+`)
)

// tree is what the documents are held against.
type tree struct {
	targets  map[string]bool
	flags    map[string]bool
	families map[string]bool   // first components of registered metric names
	quoted   string            // every .go file of the module, concatenated
	pkgs     map[string]string // package (directory) name -> its non-test sources
}

func load() (*tree, error) {
	t := &tree{targets: map[string]bool{}, families: map[string]bool{}, pkgs: map[string]string{}}
	// -race is `go test`'s, the one tool flag the documents quote on its
	// own; everything else that looks like a flag must be one of ours.
	t.flags = map[string]bool{"race": true}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		return nil, err
	}
	for _, m := range makeRule.FindAllStringSubmatch(string(mk), -1) {
		t.targets[m[1]] = true
	}
	var all strings.Builder
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		all.Write(src)
		if strings.HasSuffix(path, "_test.go") {
			return nil
		}
		for _, m := range flagDef.FindAllSubmatch(src, -1) {
			t.flags[string(m[1])] = true
		}
		for _, m := range regCall.FindAllSubmatch(src, -1) {
			t.families[string(m[1])] = true
		}
		if dir := filepath.Dir(path); strings.HasPrefix(dir, "internal") {
			t.pkgs[filepath.Base(dir)] += string(src)
		}
		return nil
	})
	t.quoted = all.String()
	return t, err
}

// check returns why tok does not resolve ("" when it does, or when it
// has none of the four shapes) and which shape it had.
func (t *tree) check(tok string) (shape, problem string) {
	if rest, ok := strings.CutPrefix(tok, "make "); ok {
		for _, target := range strings.Fields(rest) {
			if strings.HasPrefix(target, "-") || strings.Contains(target, "=") {
				continue // an option or a variable of the make invocation
			}
			if !t.targets[target] {
				return "make", "no rule " + target + " in the Makefile"
			}
		}
		return "make", ""
	}
	if m := flagTok.FindStringSubmatch(tok); m != nil {
		if !t.flags[m[1]] {
			return "flag", "no flag set defines -" + m[1]
		}
		return "flag", ""
	}
	name, _, _ := strings.Cut(tok, "{")
	if m := metric.FindStringSubmatch(name); m != nil && t.families[m[1]] {
		for _, suffix := range []string{"", "_count", "_sum", "_bucket"} {
			if strings.Contains(t.quoted, `"`+strings.TrimSuffix(name, suffix)+`"`) {
				return "metric", ""
			}
		}
		return "metric", `"` + name + `" is not a string in any Go source`
	}
	if m := identTok.FindStringSubmatch(callArgs.ReplaceAllString(tok, "")); m != nil {
		src, ours := t.pkgs[m[1]]
		if !ours {
			return "", ""
		}
		for _, name := range word.FindAllString(m[2], -1) {
			if !regexp.MustCompile(`\b` + name + `\b`).MatchString(src) {
				return "identifier", "package " + m[1] + " has no " + name
			}
		}
		return "identifier", ""
	}
	return "", ""
}

func main() {
	t, err := load()
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	checked := map[string]int{}
	failed := 0
	for _, doc := range os.Args[1:] {
		text, err := os.ReadFile(doc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "docscheck:", err)
			os.Exit(1)
		}
		// Blank the fenced blocks, keeping their newlines for line numbers.
		prose := fenced.ReplaceAllStringFunc(string(text), func(block string) string {
			return strings.Repeat("\n", strings.Count(block, "\n"))
		})
		for n, line := range strings.Split(prose, "\n") {
			for _, m := range ticked.FindAllStringSubmatch(line, -1) {
				shape, problem := t.check(m[1])
				if shape != "" {
					checked[shape]++
				}
				if problem != "" {
					fmt.Fprintf(os.Stderr, "%s:%d: `%s`: %s\n", doc, n+1, m[1], problem)
					failed++
				}
			}
		}
	}
	var shapes []string
	for _, shape := range []string{"make", "flag", "metric", "identifier"} {
		// A shape nothing matched means the pattern rotted, not the docs.
		if checked[shape] == 0 {
			fmt.Fprintf(os.Stderr, "docscheck: no `%s`-shaped token found: the check is not checking\n", shape)
			failed++
		}
		shapes = append(shapes, fmt.Sprintf("%d %s", checked[shape], shape))
	}
	fmt.Printf("docs-check: %s tokens checked, %d do not resolve\n", strings.Join(shapes, ", "), failed)
	if failed > 0 {
		os.Exit(1)
	}
}
