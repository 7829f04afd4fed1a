package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os/exec"
)

// listedPackage is the slice of `go list -json` output we consume.
type listedPackage struct {
	ImportPath string
	Export     string
}

// GoList runs `go list -deps -export -json` for patterns in dir and
// decodes the package stream. Export data is compiled (from cache) as
// a side effect, so every dependency can be imported without source
// re-typechecking. analysistest resolves standard-library imports
// through it.
func GoList(dir string, patterns ...string) ([]*listedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Export"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(out)
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			cmd.Wait()
			return nil, fmt.Errorf("go list: decoding output: %v (stderr: %s)", err, stderr.String())
		}
		pkgs = append(pkgs, &p)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.String())
	}
	return pkgs, nil
}

// ExportMap extracts importPath→exportFile from a listed package set.
func ExportMap(pkgs []*listedPackage) map[string]string {
	m := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			m[p.ImportPath] = p.Export
		}
	}
	return m
}
