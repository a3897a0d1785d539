package check

import "testing"

func BenchmarkModelCheck4Hosts2Lines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, v := Run(Options{Hosts: 4, Lines: 2, PIPM: true}); v != nil {
			b.Fatal(v)
		}
	}
}
