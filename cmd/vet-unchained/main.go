// Command vet-unchained is the repo's custom vet tool, run as
//
//	go vet -vettool=$(pwd)/bin/vet-unchained ./...
//
// (or `make vet-custom`). It speaks the cmd/go unitchecker protocol
// by hand — -V=full for the build cache, -flags for flag discovery,
// then one invocation per package unit with a JSON .cfg file — so it
// needs nothing outside the standard library. It runs the analyzers
// of internal/lint: tuplemut (no writes through shared tuple payloads outside
// internal/tuple), and astmut (no in-place writes through shared AST
// rule/literal slices outside internal/ast — rewrite passes must
// copy-on-write).
//
// Diagnostics print as "file:line:col: analyzer: message" on stderr
// and the tool exits 2, which go vet reports as a failure.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"sort"
	"strings"

	"unchained/internal/lint"
)

// config mirrors the unitchecker config JSON written by cmd/go for
// each package unit. Field names must match; unknown fields are
// ignored.
type config struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("vet-unchained", flag.ExitOnError)
	version := fs.String("V", "", "print version and exit (-V=full for the build cache)")
	printFlags := fs.Bool("flags", false, "print analyzer flags in JSON and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version != "" {
		// cmd/go requires the output to embed the tool's own content
		// hash so the build cache invalidates when the tool changes.
		fmt.Printf("vet-unchained version devel buildID=%s\n", selfHash())
		return 0
	}
	if *printFlags {
		// cmd/go discovers pass-through analyzer flags here; the
		// analyzers take none.
		fmt.Println("[]")
		return 0
	}
	rest := fs.Args()
	if len(rest) != 1 || !strings.HasSuffix(rest[0], ".cfg") {
		fmt.Fprintln(os.Stderr, "vet-unchained: usage: vet-unchained [flags] package.cfg (normally run via go vet -vettool)")
		return 2
	}
	diags, err := checkUnit(rest[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "vet-unchained:", err)
		return 1
	}
	for _, d := range diags {
		fmt.Fprintln(os.Stderr, d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}

// selfHash is the content hash of this executable.
func selfHash() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	f, err := os.Open(exe)
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:16])
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// checkUnit analyzes one package unit and returns rendered
// diagnostics, sorted by position.
func checkUnit(cfgPath string) ([]string, error) {
	b, err := os.ReadFile(cfgPath)
	if err != nil {
		return nil, err
	}
	var cfg config
	if err := json.Unmarshal(b, &cfg); err != nil {
		return nil, fmt.Errorf("%s: %v", cfgPath, err)
	}
	// Always produce the facts output first: downstream units list it
	// in PackageVetx, and these analyzers export no facts.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			return nil, err
		}
	}
	if cfg.VetxOnly {
		return nil, nil
	}

	fset := token.NewFileSet()
	var files []*ast.File
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return nil, nil
			}
			return nil, err
		}
		files = append(files, f)
	}

	// Type-check against the export data cmd/go supplies: ImportMap
	// canonicalizes source import paths, PackageFile locates the
	// compiled export data for the canonical path.
	compImp := importer.ForCompiler(fset, cfg.Compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	imp := importerFunc(func(importPath string) (*types.Package, error) {
		if mapped, ok := cfg.ImportMap[importPath]; ok {
			importPath = mapped
		}
		if importPath == "unsafe" {
			return types.Unsafe, nil
		}
		return compImp.Import(importPath)
	})
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	tc := &types.Config{Importer: imp, Sizes: types.SizesFor(cfg.Compiler, "amd64")}
	if cfg.GoVersion != "" {
		tc.GoVersion = cfg.GoVersion
	}
	pkg, err := tc.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return nil, nil
		}
		return nil, fmt.Errorf("typecheck %s: %v", cfg.ImportPath, err)
	}

	pass := &lint.Pass{Fset: fset, Files: files, Pkg: pkg, Info: info, Path: cfg.ImportPath}
	type finding struct {
		pos      token.Position
		analyzer string
		msg      string
	}
	var all []finding
	for _, a := range []struct {
		name string
		run  func(*lint.Pass) []lint.Diag
	}{
		{"tuplemut", lint.TupleMut},
		{"astmut", lint.ASTMut},
	} {
		for _, d := range a.run(pass) {
			all = append(all, finding{fset.Position(d.Pos), a.name, d.Message})
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i].pos, all[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	out := make([]string, len(all))
	for i, f := range all {
		out[i] = fmt.Sprintf("%s: %s: %s", f.pos, f.analyzer, f.msg)
	}
	return out, nil
}
