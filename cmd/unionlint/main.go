// Command unionlint is the repository's static-analysis suite: five
// analyzers encoding invariants the coordinated-sampling scheme
// depends on that `go test` does not catch (seedcheck, lockorder,
// floatcmp, errcontract, mergepure — see `unionlint -help` or README
// "Static analysis").
//
// It analyzes packages only as a go vet tool:
//
//	unionlint [-fix] [packages]
//
// runs `go vet -vettool=<this binary> [-fix] packages` (default
// ./...). The go command then calls the binary back once per
// compilation unit, test variants included, with a vet.cfg file, and
// carries analyzer facts between units in the .vetx files its build
// cache keeps. When the run fails, unionlint follows vet's output with
// a per-analyzer summary. -fix applies the mechanical suggested fixes
// (errcontract's %w rewrites) and reports only the findings without
// one. `go vet -vettool=<path to unionlint> ./...` does the same
// analysis without the summary. The analyzers themselves take no
// flags.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"repro/internal/analysis"
	"repro/internal/analysis/driver"
	"repro/internal/analysis/errcontract"
	"repro/internal/analysis/floatcmp"
	"repro/internal/analysis/lockorder"
	"repro/internal/analysis/mergepure"
	"repro/internal/analysis/seedcheck"
)

// analyzers is the suite, in reporting order.
var analyzers = []*analysis.Analyzer{
	errcontract.Analyzer,
	floatcmp.Analyzer,
	lockorder.Analyzer,
	mergepure.Analyzer,
	seedcheck.Analyzer,
}

// fixUsage describes -fix, the one flag; the -flags handshake
// announces it so go vet forwards it to every unit.
const fixUsage = "apply suggested fixes to the source tree"

func main() {
	os.Exit(run(os.Args))
}

func run(argv []string) int {
	progname := filepath.Base(argv[0])
	args := argv[1:]

	// The two go-command handshakes come before normal flag parsing:
	// cmd/go invokes them with exactly one argument.
	if len(args) == 1 && args[0] == "-V=full" {
		driver.PrintVersion(os.Stdout, progname)
		return 0
	}
	if len(args) == 1 && args[0] == "-flags" {
		fmt.Printf("[{\"Name\":\"fix\",\"Bool\":true,\"Usage\":%q}]\n", fixUsage)
		return 0
	}

	fs := flag.NewFlagSet(progname, flag.ContinueOnError)
	fix := fs.Bool("fix", false, fixUsage)
	fs.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [-fix] [package patterns]\n\nAnalyzers:\n", progname)
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, firstLine(a.Doc))
		}
		fmt.Fprintf(os.Stderr, "\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	rest := fs.Args()

	// A vet unit: the go command passes a single *.cfg file.
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return driver.RunVetUnit(rest[0], analyzers, *fix)
	}
	if len(rest) == 0 {
		rest = []string{"./..."}
	}
	return vet(progname, *fix, rest)
}

// vet runs go vet over patterns with this binary as its vet tool and,
// when the run fails, follows vet's output with the per-analyzer
// summary of the findings in it.
func vet(progname string, fix bool, patterns []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", progname, err)
		return 1
	}
	args := []string{"vet", "-vettool=" + exe}
	if fix {
		args = append(args, "-fix")
	}
	cmd := exec.Command("go", append(args, patterns...)...)
	var out bytes.Buffer
	cmd.Stdout = os.Stdout
	cmd.Stderr = io.MultiWriter(os.Stderr, &out)
	if err := cmd.Run(); err != nil {
		driver.Summarize(os.Stdout, out.Bytes())
		fmt.Fprintf(os.Stderr, "%s: go vet: %v\n", progname, err)
		return 1
	}
	return 0
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
