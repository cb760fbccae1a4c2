//go:build !linux

package flash

// mapArena allocates the page-payload arena on the heap where anonymous
// mappings are not wired up (see arena_linux.go).
func mapArena(size int) (mem []byte, unmap func()) { return make([]byte, size), nil }

func releaseArena([]byte) {}
