package driver

import (
	"fmt"
	"go/token"
	"io"
	"os"
	"sort"
	"strings"

	"repro/internal/analysis"
)

// Finding is one diagnostic located in file space.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Diag     analysis.Diagnostic
	Fset     *token.FileSet
}

// RunAnalyzers runs every analyzer over pkg and returns the findings,
// each analyzer's reports of reason-less unionlint:allow annotations
// that name it included. facts is the pass's fact store view
// (FactStore.View).
func RunAnalyzers(pkg *Package, analyzers []*analysis.Analyzer, facts analysis.FactContext) ([]Finding, error) {
	var out []Finding
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Analyzer:    a,
			Fset:        pkg.Fset,
			Files:       pkg.Files,
			Pkg:         pkg.Pkg,
			TypesInfo:   pkg.Info,
			FactContext: facts,
		}
		pass.Report = func(d analysis.Diagnostic) {
			out = append(out, Finding{
				Analyzer: a.Name,
				Pos:      pkg.Fset.Position(d.Pos),
				Diag:     d,
				Fset:     pkg.Fset,
			})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analyzer %s: %w", a.Name, err)
		}
		pass.ReportBareAllows()
	}
	sortFindings(out)
	return out, nil
}

func sortFindings(fs []Finding) {
	sort.SliceStable(fs, func(i, j int) bool {
		a, b := fs[i], fs[j]
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pos.Column < b.Pos.Column
	})
}

// PrintPlain writes findings one per line as "file:line:col: [name]
// message" — the format go vet relays and Summarize regroups.
func PrintPlain(w io.Writer, fs []Finding) {
	for _, f := range fs {
		fmt.Fprintf(w, "%s: [%s] %s\n", f.Pos, f.Analyzer, f.Diag.Message)
	}
}

// ParseVetLine splits one finding line of go vet's output,
// "file:line:col: [name] message", into its location, analyzer name
// and message. It reports false for any other line, such as vet's
// "# package" headers or a type error.
func ParseVetLine(l string) (loc, name, msg string, ok bool) {
	l = strings.TrimSpace(l)
	open := strings.Index(l, "[")
	end := strings.Index(l, "]")
	if open < 0 || end < open || !strings.HasSuffix(strings.TrimSpace(l[:open]), ":") {
		return "", "", "", false
	}
	return strings.TrimSuffix(strings.TrimSpace(l[:open]), ":"), l[open+1 : end], strings.TrimSpace(l[end+1:]), true
}

// Summarize reads go vet's output and writes its findings grouped per
// analyzer.
func Summarize(w io.Writer, vetOutput []byte) {
	type line struct{ loc, msg string }
	byName := map[string][]line{}
	var names []string
	for _, l := range strings.Split(string(vetOutput), "\n") {
		loc, name, msg, ok := ParseVetLine(l)
		if !ok {
			continue
		}
		if _, ok := byName[name]; !ok {
			names = append(names, name)
		}
		byName[name] = append(byName[name], line{loc, msg})
	}
	sort.Strings(names)
	total := 0
	for _, name := range names {
		group := byName[name]
		total += len(group)
		fmt.Fprintf(w, "-- %s: %d finding(s)\n", name, len(group))
		for _, l := range group {
			fmt.Fprintf(w, "   %s: %s\n", l.loc, l.msg)
		}
	}
	if total > 0 {
		fmt.Fprintf(w, "unionlint: %d finding(s) across %d analyzer(s)\n", total, len(names))
	}
}

// edit is one byte-offset splice within a single file.
type edit struct {
	start, end int
	text       []byte
}

// collectEdits gathers every suggested-fix text edit from fs, grouped
// by filename and expressed as byte offsets.
func collectEdits(fs []Finding) map[string][]edit {
	perFile := map[string][]edit{}
	for _, f := range fs {
		for _, fix := range f.Diag.SuggestedFixes {
			for _, te := range fix.TextEdits {
				start := f.Fset.Position(te.Pos)
				end := f.Fset.Position(te.End)
				if start.Filename == "" || start.Filename != end.Filename {
					continue
				}
				perFile[start.Filename] = append(perFile[start.Filename],
					edit{start.Offset, end.Offset, te.NewText})
			}
		}
	}
	return perFile
}

// applyEdits splices edits into src, latest offsets first so earlier
// edits do not shift later ones; overlapping or out-of-range edits are
// skipped. It returns the new contents and the count applied.
func applyEdits(src []byte, edits []edit) ([]byte, int) {
	sort.Slice(edits, func(i, j int) bool { return edits[i].start > edits[j].start })
	applied := 0
	prev := len(src) + 1
	for _, e := range edits {
		if e.end > prev || e.start > e.end || e.end > len(src) {
			continue // overlapping or out-of-range edit: skip
		}
		src = append(src[:e.start], append(append([]byte(nil), e.text...), src[e.end:]...)...)
		prev = e.start
		applied++
	}
	return src, applied
}

// ApplyFixes applies every suggested fix carried by fs to the files on
// disk.
func ApplyFixes(fs []Finding) error {
	for name, edits := range collectEdits(fs) {
		src, err := os.ReadFile(name)
		if err != nil {
			return err
		}
		if fixed, n := applyEdits(src, edits); n > 0 {
			if err := os.WriteFile(name, fixed, 0o644); err != nil {
				return err
			}
		}
	}
	return nil
}
