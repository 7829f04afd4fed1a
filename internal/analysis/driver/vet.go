package driver

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"go/token"
	"io"
	"os"

	"repro/internal/analysis"
)

// vetConfig mirrors the JSON configuration the go command writes for
// `go vet -vettool` tools (x/tools unitchecker.Config). Fields we do
// not consume are still listed so decoding stays strict-compatible.
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// PrintVersion implements the `-V=full` handshake: the go command
// hashes this line into its action cache key, so it must change when
// the tool's behavior does — we hash the executable itself.
func PrintVersion(w io.Writer, progname string) {
	id := "unknown"
	if exe, err := os.Executable(); err == nil {
		if data, err := os.ReadFile(exe); err == nil {
			sum := sha256.Sum256(data)
			id = fmt.Sprintf("%x", sum[:12])
		}
	}
	fmt.Fprintf(w, "%s version devel buildID=%s\n", progname, id)
}

// RunVetUnit analyzes the single compilation unit described by the
// .cfg file, printing findings to stderr in plain form. Its exit-code
// contract matches x/tools unitchecker: 0 clean, nonzero otherwise
// (the go command relays stderr and fails the vet step).
//
// Facts flow per the unitchecker protocol: the .vetx files of the
// unit's direct imports (cfg.PackageVetx) are merged into a fresh
// FactStore before analysis, and the store — now holding the imports'
// transitive facts plus this unit's exports — is written to
// cfg.VetxOutput for the go command to cache and feed to importers.
// VetxOnly units (needed only as dependencies) still run every
// analyzer so their facts exist, but their diagnostics are discarded.
func RunVetUnit(cfgPath string, analyzers []*analysis.Analyzer) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "unionlint: reading vet config: %v\n", err)
		return 1
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "unionlint: parsing vet config %s: %v\n", cfgPath, err)
		return 1
	}
	store := NewFactStore(analyzers)
	// The go command's cache invalidates .vetx files whenever this
	// tool's -V=full buildID changes, so any file present here was
	// written by this exact binary and must decode.
	for _, vetx := range cfg.PackageVetx {
		if err := store.ReadFile(vetx); err != nil {
			fmt.Fprintf(os.Stderr, "unionlint: %v\n", err)
			return 1
		}
	}
	// The go command requires the facts output to exist even when
	// analysis bails out (typecheck failure under
	// SucceedOnTypecheckFailure); writeFacts is called on every path.
	writeFacts := func() bool {
		if cfg.VetxOutput == "" {
			return true
		}
		if err := store.WriteFile(cfg.VetxOutput); err != nil {
			fmt.Fprintf(os.Stderr, "unionlint: writing facts: %v\n", err)
			return false
		}
		return true
	}
	// Standard-library units reach this tool only as dependencies
	// (VetxOnly), but none of our analyzers state invariants about the
	// standard library — its behavior is axiomatic in their models.
	// Analyzing it is not just wasted work, it is wrong: mergepure
	// would taint every allocating function (the runtime's GC starts
	// goroutines), and that poison would spread to every module
	// function that calls fmt.Errorf. The standalone driver never
	// loads stdlib sources; match that here by contributing an empty
	// fact set. Stdlib units are the ones with no module: the go
	// command sets ModulePath for every module package but leaves it
	// empty for the standard library (cfg.Standard only describes the
	// unit's imports, not the unit itself).
	if cfg.ModulePath == "" {
		if !writeFacts() {
			return 1
		}
		return 0
	}
	fset := token.NewFileSet()
	files, err := ParseFiles(fset, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure && writeFacts() {
			return 0
		}
		fmt.Fprintf(os.Stderr, "unionlint: %v\n", err)
		return 1
	}
	pkg, err := TypeCheck(fset, cfg.ImportPath, files, FileLookup(cfg.ImportMap, cfg.PackageFile), cfg.GoVersion)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure && writeFacts() {
			return 0
		}
		fmt.Fprintf(os.Stderr, "unionlint: %v\n", err)
		return 1
	}
	// The store holds exactly the unit's visible closure, so the view
	// needs no extra visibility restriction (nil = everything).
	findings, err := RunAnalyzers(pkg, analyzers, store.View(pkg.Pkg, nil))
	if err != nil {
		fmt.Fprintf(os.Stderr, "unionlint: %v\n", err)
		return 1
	}
	if !writeFacts() {
		return 1
	}
	if cfg.VetxOnly {
		// This unit was only needed for its facts; suppress findings
		// (they are reported when the package is vetted directly).
		return 0
	}
	if len(findings) > 0 {
		PrintPlain(os.Stderr, findings)
		return 2
	}
	return 0
}
