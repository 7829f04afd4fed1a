// Package lockcheck holds the golden test for lockorder's `// guards:`
// checks, which began as a separate lockcheck analyzer: a field listed
// in a mutex's guards: comment may only be touched in a function that
// locks that mutex somewhere in its body or declares `// locked:`, and
// a guards: list must sit on one mutex field and name fields of its
// own struct. The analyzer itself is lockorder.Analyzer; this package
// has no code.
package lockcheck
