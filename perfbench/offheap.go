package main

import (
	"fmt"
	"syscall"
	"unsafe"
)

// offHeap is a zeroed array of n values of T mapped outside the Go heap,
// so the harness's per-flow bookkeeping neither counts toward heap_mb nor
// gives the collector anything to scan. T must hold no Go pointers. The
// caller calls free once nothing references the array any more.
type offHeap[T any] struct {
	items []T
	mem   []byte
}

func mapOffHeap[T any](n int) (*offHeap[T], error) {
	if n < 1 {
		n = 1
	}
	var zero T
	mem, err := syscall.Mmap(-1, 0, n*int(unsafe.Sizeof(zero)),
		syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map %d off-heap values: %w", n, err)
	}
	return &offHeap[T]{items: unsafe.Slice((*T)(unsafe.Pointer(&mem[0])), n), mem: mem}, nil
}

func (o *offHeap[T]) free() {
	if o == nil || o.mem == nil {
		return
	}
	o.items = nil
	_ = syscall.Munmap(o.mem) // only fails for a bad range, which mem is not
	o.mem = nil
}
