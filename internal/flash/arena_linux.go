//go:build linux

package flash

import "syscall"

// mapArena returns size bytes of anonymous memory mapped outside the Go
// heap, for page payloads. Pages of it cost memory only once written, and
// the garbage collector neither scans it nor counts it toward its heap
// goal, so a stored page occupies its own bytes, not twice them. If the
// mapping fails it falls back to the heap.
func mapArena(size int) (mem []byte, unmap func()) {
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
	if err != nil {
		return make([]byte, size), nil
	}
	// A failed unmap leaks the range and nothing else; no caller is left
	// to tell.
	return mem, func() { _ = syscall.Munmap(mem) }
}

// releaseArena hands the memory behind an erased block's pages back to the
// kernel; it reads as zeros until written again. If the advice fails the
// memory just stays resident until the next program overwrites it.
func releaseArena(mem []byte) { _ = syscall.Madvise(mem, syscall.MADV_DONTNEED) }
