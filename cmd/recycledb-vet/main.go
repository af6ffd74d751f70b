// Command recycledb-vet machine-checks the engine's cross-cutting
// invariants — the conventions no compiler enforces and -race only
// catches probabilistically:
//
//	poolcheck     vector.Pool ownership: pooled scratch and blocking state
//	              (Get, Reserve, Grow) stored in a field released in Close;
//	              recycler-destined buffers hold deep clones
//	detcheck      no map-iteration order leaking into results, cache state
//	              or recycler statistics (serial-identical merges)
//	snapcheck     exec reads base tables only through the statement
//	              snapshot (Ctx.SnapFor), never catalog.Table directly
//	guardedcheck  `// guarded by mu` field annotations hold; sync/atomic
//	              fields are never copied as values
//	ctxcheck      no context.Background/TODO in library packages; operator
//	              Next observes cancellation at batch boundaries
//
// Usage:
//
//	recycledb-vet [-checks a,b] [packages]     # standalone, from repo root
//	go vet -vettool=$(which recycledb-vet) ./...   # as a vet tool
//
// The README's "Invariants & static analysis" section documents each
// invariant and the justification-annotation syntax.
package main

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"recycledb/internal/analysis"
	"recycledb/internal/analysis/ctxcheck"
	"recycledb/internal/analysis/detcheck"
	"recycledb/internal/analysis/guardedcheck"
	"recycledb/internal/analysis/poolcheck"
	"recycledb/internal/analysis/snapcheck"
)

var analyzers = []*analysis.Analyzer{
	poolcheck.Analyzer,
	detcheck.Analyzer,
	snapcheck.Analyzer,
	guardedcheck.Analyzer,
	ctxcheck.Analyzer,
}

const module = "recycledb"

// libraryPackages are the packages on the Engine's query path: the
// cancellation contract (ctxcheck) binds them. The test-and-benchmark
// fixtures (internal/harness, internal/workload), the data generators, the
// wire client, examples and cmds mint their own root contexts legitimately.
// internal/server is included deliberately: connection handlers must derive
// every statement context from the session's context (so CancelRequest,
// statement_timeout and drain reach them), never mint context.Background.
var libraryPackages = map[string]bool{
	module:                       true,
	module + "/internal/catalog": true,
	module + "/internal/core":    true,
	module + "/internal/exec":    true,
	module + "/internal/expr":    true,
	module + "/internal/opt":     true,
	module + "/internal/plan":    true,
	module + "/internal/rewrite": true,
	module + "/internal/server":  true,
	module + "/internal/sql":     true,
	module + "/internal/vector":  true,
}

// resultPackages produce query results, plan shapes, cache state or
// recycler statistics: map-iteration order must not leak there (detcheck).
// internal/opt is included because optimizer enumeration must be
// deterministic — two plannings of one query against the same recycler
// state have to yield byte-identical plans. internal/vector is included
// because the gather/refine kernels build the batches results are made of:
// emission must follow explicit order slices (first-occurrence group
// order), never a map walk.
var resultPackages = map[string]bool{
	module + "/internal/exec":    true,
	module + "/internal/core":    true,
	module + "/internal/opt":     true,
	module + "/internal/plan":    true,
	module + "/internal/rewrite": true,
	module + "/internal/vector":  true,
}

// inScope decides which analyzers run on which import paths.
func inScope(a *analysis.Analyzer, importPath string) bool {
	if !strings.HasPrefix(importPath, module) {
		return false
	}
	switch a.Name {
	case "detcheck":
		return resultPackages[importPath]
	case "snapcheck":
		return importPath == module+"/internal/exec"
	case "ctxcheck":
		return libraryPackages[importPath]
	default: // poolcheck, guardedcheck: annotation/usage driven, module-wide
		return true
	}
}

func main() {
	// `go vet -vettool` probes the tool's identity with -V=full before
	// handing it package config files.
	for _, arg := range os.Args[1:] {
		switch arg {
		case "-V=full", "--V=full":
			// The go command derives the vettool's cache key from this
			// line; the content hash invalidates cached vet results
			// whenever the analyzers change.
			fmt.Printf("recycledb-vet version devel comments-go-here buildID=%s\n", selfID())
			return
		case "-flags", "--flags":
			// go vet asks for the tool's flag inventory as JSON; these
			// analyzers take no per-run flags.
			fmt.Println("[]")
			return
		}
	}
	if len(os.Args) == 2 && strings.HasSuffix(os.Args[1], ".cfg") {
		os.Exit(unitcheckerMain(os.Args[1]))
	}

	checks := flag.String("checks", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list analyzers and exit")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: recycledb-vet [-checks a,b] [packages]\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-13s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()

	if *list {
		for _, a := range analyzers {
			fmt.Printf("%-13s %s\n", a.Name, a.Doc)
		}
		return
	}
	selected, err := selectAnalyzers(*checks)
	if err != nil {
		fmt.Fprintln(os.Stderr, "recycledb-vet:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	os.Exit(standaloneMain(selected, patterns))
}

func selectAnalyzers(checks string) ([]*analysis.Analyzer, error) {
	if checks == "" {
		return analyzers, nil
	}
	byName := make(map[string]*analysis.Analyzer)
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(checks, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}

// standaloneMain loads the matched packages from source and runs the
// selected analyzers, printing findings as file:line:col lines.
func standaloneMain(selected []*analysis.Analyzer, patterns []string) int {
	pkgs, err := listPackages(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "recycledb-vet:", err)
		return 2
	}
	loader := analysis.NewLoader()
	cwd, _ := os.Getwd()
	findings := 0
	for _, lp := range pkgs {
		needed := selected[:0:0]
		for _, a := range selected {
			if inScope(a, lp.ImportPath) {
				needed = append(needed, a)
			}
		}
		if len(needed) == 0 {
			continue
		}
		pkg, err := loader.LoadDir(lp.Dir, lp.ImportPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "recycledb-vet:", err)
			return 2
		}
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "recycledb-vet: %s: type error: %v\n", lp.ImportPath, terr)
			return 2
		}
		for _, a := range needed {
			diags, err := analysis.RunAnalyzer(a, pkg)
			if err != nil {
				fmt.Fprintln(os.Stderr, "recycledb-vet:", err)
				return 2
			}
			for _, d := range diags {
				pos := pkg.Fset.Position(d.Pos)
				name := pos.Filename
				if rel, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(rel, "..") {
					name = rel
				}
				fmt.Printf("%s:%d:%d: %s: %s\n", name, pos.Line, pos.Column, a.Name, d.Message)
				findings++
			}
		}
	}
	if findings > 0 {
		fmt.Fprintf(os.Stderr, "recycledb-vet: %d finding(s)\n", findings)
		return 1
	}
	return 0
}

// selfID returns a content hash of the running executable, used as the
// tool's build ID for go vet's action cache.
func selfID() string {
	exe, err := os.Executable()
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile(exe)
	if err != nil {
		return "unknown"
	}
	sum := sha256.Sum256(data)
	return fmt.Sprintf("%x/%x/%x/%x", sum[:8], sum[8:16], sum[16:24], sum[24:])
}
