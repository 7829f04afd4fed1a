// Package retiredpkg reuses a retired sketch kind tag (the test adds
// tag 9 to retiredKindTags as "legacy envelope tag").
package retiredpkg

import (
	"fmt"

	"repro/internal/sketch"
)

func wrap(err error) error {
	if err != nil {
		return fmt.Errorf("retiredpkg: decode: %w", sketch.ErrCorrupt)
	}
	return fmt.Errorf("retiredpkg: merge: %w", sketch.ErrMismatch)
}

func init() {
	sketch.Register(sketch.KindInfo{
		Kind:    9, // want "sketch kind tag 9 is retired \\(legacy envelope tag\\) and must never be reused"
		Name:    "retiredpkg",
		Version: 1,
	})
}
