// Command unionlint is the repository's static-analysis suite: five
// analyzers encoding invariants the coordinated-sampling scheme
// depends on that `go test` does not catch (seedcheck, lockorder,
// floatcmp, errcontract, mergepure — see `unionlint -help` or README
// "Static analysis").
//
// It runs in two modes:
//
//	go vet -vettool=$(go env GOPATH)/bin/unionlint ./...
//
// speaks the go command's vet-tool protocol (this is what ci.sh runs:
// it covers test compilations, caches per package, and round-trips
// analyzer facts through .vetx files), and
//
//	unionlint [flags] ./...
//
// loads packages itself in dependency order (so facts flow the same
// way) and prints findings grouped per analyzer. Standalone-only
// flags: -fix applies the mechanical suggested fixes (errcontract's
// %w rewrites); -json emits one JSON object per diagnostic for CI
// artifacts; -summarize regroups vet-mode output read from stdin.
// The analyzers themselves take no flags.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/analysis/driver"
	"repro/internal/analysis/registry"
)

func main() {
	os.Exit(run(os.Args))
}

func run(argv []string) int {
	progname := filepath.Base(argv[0])
	args := argv[1:]
	analyzers := registry.Analyzers()

	// The two go-command handshakes come before normal flag parsing:
	// cmd/go invokes them with exactly one argument.
	if len(args) == 1 && args[0] == "-V=full" {
		driver.PrintVersion(os.Stdout, progname)
		return 0
	}
	if len(args) == 1 && args[0] == "-flags" {
		// The go command splices the listed analyzer flags into its
		// own vet flag parsing; there are none.
		fmt.Println("[]")
		return 0
	}

	fs := flag.NewFlagSet(progname, flag.ContinueOnError)
	fix := fs.Bool("fix", false, "apply suggested fixes to the source tree (standalone mode)")
	jsonOut := fs.Bool("json", false, "print findings as JSON Lines (one diagnostic per line) instead of the grouped summary")
	summarize := fs.Bool("summarize", false, "read vet-mode diagnostics from stdin and print a per-analyzer summary")
	verbose := fs.Bool("v", false, "also list analyzers that found nothing")
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] [package patterns | path/to/vet.cfg]\n\nAnalyzers:\n", progname)
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, firstLine(a.Doc))
		}
		fmt.Fprintf(os.Stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *summarize {
		if err := driver.Summarize(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
			return 1
		}
		return 0
	}

	rest := fs.Args()

	// Vet-tool mode: the go command passes a single *.cfg file.
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return driver.RunVetUnit(rest[0], analyzers)
	}

	// Standalone mode.
	patterns := rest
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := driver.LoadModulePackages(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		return 1
	}
	// One shared fact store; packages arrive in dependency order, so
	// by the time a package runs, every fact of its transitive imports
	// is present, and the per-package view hides everything else.
	store := driver.NewFactStore(analyzers)
	var findings []driver.Finding
	for _, pkg := range pkgs {
		visible := make(map[string]bool, len(pkg.Deps))
		for _, d := range pkg.Deps {
			visible[d] = true
		}
		fs, err := driver.RunAnalyzers(pkg, analyzers, store.View(pkg.Pkg, visible))
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
			return 1
		}
		findings = append(findings, fs...)
	}
	if *fix {
		n, err := driver.ApplyFixes(findings)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: applying fixes: %v\n", progname, err)
			return 1
		}
		fmt.Printf("%s: applied %d suggested fix(es)\n", progname, n)
		return 0
	}
	if *jsonOut {
		if err := driver.PrintJSON(os.Stdout, findings); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
			return 1
		}
		if len(findings) > 0 {
			return 1
		}
		return 0
	}
	if len(findings) == 0 {
		if *verbose {
			for _, a := range analyzers {
				fmt.Printf("-- %s: ok\n", a.Name)
			}
		}
		fmt.Printf("%s: %d package(s) clean\n", progname, len(pkgs))
		return 0
	}
	driver.PrintGrouped(os.Stdout, findings)
	fmt.Printf("%s: %d finding(s)\n", progname, len(findings))
	return 1
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
