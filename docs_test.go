package mpl_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdRef matches a markdown-file reference inside a comment, e.g. DESIGN.md,
// docs/API.md, or EXPERIMENTS.md.
var mdRef = regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)

// urlRef matches URLs inside comment text; .md paths under a URL point at
// external sites, not repo files, and must not be integrity-checked.
var urlRef = regexp.MustCompile(`[a-z][a-z0-9+.-]*://\S+`)

// TestDocCommentReferencesResolve is the docs-integrity gate: every *.md
// file referenced from a Go comment anywhere in the repository must exist
// (relative to the repo root), so documentation pointers like "DESIGN.md §5"
// can never dangle again. CI runs this as a dedicated step.
func TestDocCommentReferencesResolve(t *testing.T) {
	root, err := os.Getwd() // the root package lives at the repo root
	if err != nil {
		t.Fatal(err)
	}
	refs := map[string][]string{} // md path -> referencing files
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, line := range strings.Split(string(data), "\n") {
			// Only comment text: doc references live in comments, and
			// scanning string literals would flag synthesized names. A "//"
			// preceded by ':' is a URL scheme inside a literal ("https://"),
			// not a comment start — skip past it.
			idx, off := -1, 0
			for {
				i := strings.Index(line[off:], "//")
				if i < 0 {
					break
				}
				at := off + i
				if at > 0 && line[at-1] == ':' {
					off = at + 2
					continue
				}
				idx = at
				break
			}
			if idx < 0 {
				continue
			}
			comment := urlRef.ReplaceAllString(line[idx:], "")
			for _, m := range mdRef.FindAllString(comment, -1) {
				rel, _ := filepath.Rel(root, path)
				refs[m] = append(refs[m], rel)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(refs) == 0 {
		t.Fatal("no markdown references found in Go comments; the scanner is broken")
	}
	for md, files := range refs {
		if _, err := os.Stat(filepath.Join(root, md)); err != nil {
			t.Errorf("dangling doc reference %q (from %s)", md, strings.Join(dedup(files), ", "))
		}
	}
}

// TestInternalPackageDocs: every internal/* package must carry a
// package-level doc comment ("// Package <name> ...") in at least one of
// its non-test files, so `go doc` is useful for every layer of the
// pipeline.
func TestInternalPackageDocs(t *testing.T) {
	dirs, err := filepath.Glob("internal/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("no internal packages found")
	}
	for _, dir := range dirs {
		info, err := os.Stat(dir)
		if err != nil || !info.IsDir() {
			continue
		}
		pkg := filepath.Base(dir)
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			data, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(data), "// Package "+pkg+" ") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("package internal/%s has no package-level doc comment", pkg)
		}
	}
}

// roadmapItemRef matches a citation of a ROADMAP item by number, in either
// word order and across line breaks: "ROADMAP item 2", "item 5 of
// ROADMAP.md". Items are renumbered as work lands, so such a citation
// silently comes to name other work.
var roadmapItemRef = regexp.MustCompile(`(?i)\bROADMAP(?:\.md)?\s+items?\s+\d+|\bitems?\s+\d+(?:\([a-z]\))?\s+of\s+(?:the\s+)?ROADMAP\b`)

// taskChecklist matches a markdown task-list entry ("- [ ] ..."). A doc
// that carries one is a work plan: it cites ROADMAP items as they are
// numbered when it is written, like the change log does.
var taskChecklist = regexp.MustCompile(`(?m)^\s*- \[[ xX]\] `)

// TestDocsCiteNoRoadmapItemNumbers: no markdown doc except ROADMAP.md
// itself, the change log (CHANGES.md) and work plans may cite a ROADMAP
// item by number; name the subject instead.
func TestDocsCiteNoRoadmapItemNumbers(t *testing.T) {
	exempt := map[string]bool{"ROADMAP.md": true, "CHANGES.md": true}
	scanned := 0
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == ".bench_build" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".md") || exempt[path] {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		scanned++
		text := string(data)
		if taskChecklist.MatchString(text) {
			return nil
		}
		for _, loc := range roadmapItemRef.FindAllStringIndex(text, -1) {
			line := 1 + strings.Count(text[:loc[0]], "\n")
			t.Errorf("%s:%d cites a ROADMAP item by number (%q); name its subject instead",
				path, line, strings.Join(strings.Fields(text[loc[0]:loc[1]]), " "))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if scanned == 0 {
		t.Fatal("no markdown docs found; the scanner is broken")
	}
}

// testName matches a Go test, benchmark or fuzz target named in prose;
// a trailing * makes the name a prefix ("TestCSRMatchesLegacy*").
var testName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*\*?`)

// testFunc matches the declaration of one in a _test.go file.
var testFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Za-z0-9_]*)\(`)

// TestDocsNameExistingTests: every test, benchmark or fuzz target the docs
// name must be defined in some _test.go file of the repository, so a doc
// that points readers at a pinning test cannot outlive the test.
func TestDocsNameExistingTests(t *testing.T) {
	defined := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFunc.FindAllStringSubmatch(string(data), -1) {
			defined[m[1]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(defined) == 0 {
		t.Fatal("no test functions found; the scanner is broken")
	}

	docs := []string{"DESIGN.md", "EXPERIMENTS.md", "README.md", "servebench/README.md"}
	for _, pattern := range []string{"docs/*.md", ".claude/skills/*/SKILL.md"} {
		matches, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		docs = append(docs, matches...)
	}
	named := 0
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			for _, name := range testName.FindAllString(line, -1) {
				named++
				if !testDefined(defined, name) {
					t.Errorf("%s:%d names %s, which no _test.go defines", doc, i+1, name)
				}
			}
		}
	}
	if named == 0 {
		t.Fatal("no test names found in the docs; the scanner is broken")
	}
}

// testDefined reports whether name, or with a trailing * any name it
// prefixes, is a defined test function.
func testDefined(defined map[string]bool, name string) bool {
	prefix, ok := strings.CutSuffix(name, "*")
	if !ok {
		return defined[name]
	}
	for d := range defined {
		if strings.HasPrefix(d, prefix) {
			return true
		}
	}
	return false
}

func dedup(in []string) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range in {
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}
