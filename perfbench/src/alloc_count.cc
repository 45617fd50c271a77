/**
 * @file
 * Counting global operator new/delete, linked only into the benchmark
 * binary. The count is a plain integer: the simulator and the benchmark
 * are single-threaded.
 */

#include <cstdlib>
#include <new>

#include "bench.hh"

namespace {

std::uint64_t g_allocs = 0;

void *
countedAlloc(std::size_t size)
{
    g_allocs++;
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
countedAlignedAlloc(std::size_t size, std::align_val_t align)
{
    g_allocs++;
    const std::size_t a = static_cast<std::size_t>(align);
    // aligned_alloc wants the size to be a multiple of the alignment.
    const std::size_t rounded = ((size ? size : 1) + a - 1) / a * a;
    if (void *p = std::aligned_alloc(a, rounded))
        return p;
    throw std::bad_alloc();
}

} // namespace

std::uint64_t
perfbench::allocCount()
{
    return g_allocs;
}

void *operator new(std::size_t size) { return countedAlloc(size); }
void *operator new[](std::size_t size) { return countedAlloc(size); }

void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocs++;
    return std::malloc(size ? size : 1);
}

void *
operator new[](std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocs++;
    return std::malloc(size ? size : 1);
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, align);
}

void operator delete(void *p) noexcept { std::free(p); }
void operator delete[](void *p) noexcept { std::free(p); }
void operator delete(void *p, std::size_t) noexcept { std::free(p); }
void operator delete[](void *p, std::size_t) noexcept { std::free(p); }
void operator delete(void *p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void *p, std::align_val_t) noexcept { std::free(p); }

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}
