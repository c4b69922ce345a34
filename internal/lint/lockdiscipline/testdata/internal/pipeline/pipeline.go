// Package pipeline is a fixture stub of the module's one goroutine
// boundary.
package pipeline

// Fan runs body(0) inline and body(1), …, body(n-1) on new goroutines.
func Fan(n int, body func(w int)) {
	for w := 0; w < n || w == 0; w++ {
		body(w)
	}
}
