package fence_test

import (
	"testing"

	"repro/internal/fence"
	"repro/internal/litmus"
)

// BenchmarkEnforce repairs each non-robust Figure 7 row at rocker repair's
// defaults (fences only, at most four):
//
//	go test -run '^$' -bench Enforce -benchmem ./internal/fence
func BenchmarkEnforce(b *testing.B) {
	for _, e := range litmus.Fig7() {
		if e.RobustRA || e.Big {
			continue
		}
		p := e.Program()
		b.Run(e.Name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, _, err := fence.Enforce(p, fence.Options{MaxRepairs: 4, Strategy: fence.Fences}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
