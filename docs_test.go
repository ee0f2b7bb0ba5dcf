package dolbie_test

// Documentation coverage enforcement: every exported declaration in every
// library package must carry a doc comment, every package (libraries,
// commands, and examples alike) must open with a real package comment,
// and every relative link in the markdown docs must resolve. This keeps
// deliverable-grade godoc and the operator docs from regressing as the
// repository evolves. `make docs` (part of `make vet`) runs exactly
// these tests.

import (
	"bufio"
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

// docPackages lists the directories whose exported API must be fully
// documented (commands and examples are mains; their flag help is the
// interface).
var docPackages = []string{
	".",
	"internal/baselines",
	"internal/cluster",
	"internal/core",
	"internal/costfn",
	"internal/edgesim",
	"internal/estimate",
	"internal/experiments",
	"internal/geo",
	"internal/metrics",
	"internal/mlsim",
	"internal/optimum",
	"internal/procmodel",
	"internal/regret",
	"internal/simplex",
	"internal/stats",
	"internal/trace",
	"internal/wire",
}

func TestExportedDeclarationsAreDocumented(t *testing.T) {
	for _, dir := range docPackages {
		dir := dir
		t.Run(dir, func(t *testing.T) {
			fset := token.NewFileSet()
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			for _, entry := range entries {
				name := entry.Name()
				if entry.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
					continue
				}
				path := filepath.Join(dir, name)
				file, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
				if err != nil {
					t.Fatalf("parse %s: %v", path, err)
				}
				checkFileDocs(t, fset, file)
			}
		})
	}
}

func checkFileDocs(t *testing.T, fset *token.FileSet, file *ast.File) {
	t.Helper()
	report := func(pos token.Pos, what string) {
		t.Errorf("%s: exported %s lacks a doc comment", fset.Position(pos), what)
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			// Methods on unexported receivers are effectively internal.
			if d.Recv != nil && !exportedReceiver(d.Recv) {
				continue
			}
			if d.Doc == nil {
				report(d.Pos(), "function "+d.Name.Name)
			}
		case *ast.GenDecl:
			if d.Tok != token.TYPE && d.Tok != token.CONST && d.Tok != token.VAR {
				continue
			}
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					documented := d.Doc != nil || s.Doc != nil || s.Comment != nil
					if s.Name.IsExported() && !documented {
						report(s.Pos(), "type "+s.Name.Name)
						// Undocumented structs must at least document
						// their exported fields.
						checkStructFields(t, fset, s)
					}
				case *ast.ValueSpec:
					for _, name := range s.Names {
						if name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(s.Pos(), "value "+name.Name)
						}
					}
				}
			}
		}
	}
}

// checkStructFields requires docs on exported fields of exported structs,
// accepting either leading or trailing comments.
func checkStructFields(t *testing.T, fset *token.FileSet, s *ast.TypeSpec) {
	t.Helper()
	if !s.Name.IsExported() {
		return
	}
	st, ok := s.Type.(*ast.StructType)
	if !ok || st.Fields == nil {
		return
	}
	for _, field := range st.Fields.List {
		if field.Doc != nil || field.Comment != nil {
			continue
		}
		for _, name := range field.Names {
			if name.IsExported() {
				t.Errorf("%s: exported field %s.%s lacks a doc comment",
					fset.Position(name.Pos()), s.Name.Name, name.Name)
			}
		}
	}
}

// TestPackageCommentsPresent walks every Go package in the repository —
// including commands and examples, which the exported-declaration check
// deliberately skips — and requires a package comment that actually says
// something: present, not a placeholder, and following the godoc
// convention of opening with the package (or command) name.
func TestPackageCommentsPresent(t *testing.T) {
	pkgDirs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			pkgDirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for dir := range pkgDirs {
		dir := dir
		t.Run(dir, func(t *testing.T) {
			fset := token.NewFileSet()
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var pkgName string
			var docs []string
			for _, entry := range entries {
				name := entry.Name()
				if entry.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
					continue
				}
				file, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments|parser.PackageClauseOnly)
				if err != nil {
					t.Fatal(err)
				}
				pkgName = file.Name.Name
				if file.Doc != nil {
					docs = append(docs, strings.TrimSpace(file.Doc.Text()))
				}
			}
			if len(docs) == 0 {
				t.Fatalf("package in %s has no package comment on any file", dir)
			}
			for _, doc := range docs {
				if doc == "" || strings.HasPrefix(doc, "TODO") || strings.HasPrefix(doc, "FIXME") {
					t.Fatalf("package in %s has a placeholder package comment %q", dir, doc)
				}
				// Libraries follow the godoc "Package <name>" convention and
				// commands the "Command <name>" one; examples may open with
				// free-form prose describing the scenario.
				want := "Package " + pkgName
				if pkgName == "main" {
					want = "Command "
					if !strings.HasPrefix(dir, "cmd") {
						want = ""
					}
				}
				if want != "" && !strings.HasPrefix(doc, want) {
					t.Errorf("package comment in %s should start with %q, got %q", dir, want, firstLine(doc))
				}
				if len(doc) < len(want)+20 {
					t.Errorf("package comment in %s is too thin to document anything: %q", dir, doc)
				}
			}
		})
	}
}

// markdownLink matches inline markdown links and images; the capture is
// the destination.
var markdownLink = regexp.MustCompile(`!?\[[^\]]*\]\(([^)\s]+)[^)]*\)`)

// inlineCode matches a code span, whose text is never a link.
var inlineCode = regexp.MustCompile("`[^`]*`")

// TestMarkdownLinksResolve checks every relative link in the repository's
// markdown files: the linked file (or directory) must exist. External
// URLs and intra-document anchors are out of scope — this is about
// renames and deletions silently orphaning the docs cross-references.
func TestMarkdownLinksResolve(t *testing.T) {
	var mdFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != "." && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) == 0 {
		t.Fatal("no markdown files found")
	}
	for _, path := range mdFiles {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(make([]byte, 1024*1024), 1024*1024)
		inFence := false
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			if strings.HasPrefix(strings.TrimSpace(text), "```") {
				inFence = !inFence
				continue
			}
			if inFence {
				continue
			}
			for _, m := range markdownLink.FindAllStringSubmatch(inlineCode.ReplaceAllString(text, ""), -1) {
				dest := m[1]
				if strings.Contains(dest, "://") || strings.HasPrefix(dest, "mailto:") || strings.HasPrefix(dest, "#") {
					continue
				}
				if i := strings.IndexByte(dest, '#'); i >= 0 {
					dest = dest[:i]
				}
				if dest == "" {
					continue
				}
				target := filepath.Join(filepath.Dir(path), dest)
				if _, err := os.Stat(target); err != nil {
					t.Errorf("%s:%d: link %q does not resolve (%s)", path, line, m[1], target)
				}
			}
		}
		if err := sc.Err(); err != nil {
			t.Errorf("scan %s: %v", path, err)
		}
		f.Close() //nolint:errcheck // read-only
	}
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}

func exportedReceiver(recv *ast.FieldList) bool {
	if len(recv.List) == 0 {
		return false
	}
	switch expr := recv.List[0].Type.(type) {
	case *ast.Ident:
		return expr.IsExported()
	case *ast.StarExpr:
		if id, ok := expr.X.(*ast.Ident); ok {
			return id.IsExported()
		}
	}
	return false
}
