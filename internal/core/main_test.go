package core

import (
	"os"
	"runtime/debug"
	"testing"
)

// TestMain runs the package's tests under a tighter GC target than Go's
// default. The Figure 7 sweeps explore lamport2-3-ra's 16M states on the
// exact store, twice per subtest. The live heap of one such run passes
// 4 GB, and at GOGC=100 the heap may grow to twice that before a
// collection frees a finished run's store: 7.5 GB peak RSS, which the OOM
// killer ends on an 8 GB machine. At 25 the package peaks near 4.8 GB. The
// store's bulk is pointer-free key arenas, so the extra collections are
// cheap. A GOGC set in the environment takes precedence.
func TestMain(m *testing.M) {
	if os.Getenv("GOGC") == "" {
		debug.SetGCPercent(25)
	}
	os.Exit(m.Run())
}
