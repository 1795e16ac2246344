// Global allocation counting for the allocation probes: every operator new
// in a benchmark binary bumps a per-thread tally, read around a measured
// region by thread_allocs().  Per-thread, so the service and parallel-engine
// threads never contend on it and a probe sees only its own allocations.

#include <cstdlib>
#include <new>

#include "harness.hpp"

namespace {
thread_local std::size_t t_allocs = 0;

void* counted_alloc(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
}  // namespace

std::size_t perfbench::thread_allocs() { return t_allocs; }

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
