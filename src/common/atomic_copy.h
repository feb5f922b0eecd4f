#ifndef PANDORA_COMMON_ATOMIC_COPY_H_
#define PANDORA_COMMON_ATOMIC_COPY_H_

#include <cstddef>
#include <cstdint>

namespace pandora {

/// Word-atomic memory copy primitives.
///
/// The simulated fabric shares address space between "compute" and "memory"
/// nodes, so a plain memcpy racing with a concurrent writer would be a C++
/// data race. Real RDMA reads/writes land in cache-line-sized chunks with no
/// language-level race, and the OCC protocol tolerates *torn values* (a read
/// overlapping a write is caught by version validation). These helpers copy
/// in relaxed 64-bit atomic chunks, giving the same semantics — per-word
/// atomicity, possible whole-object tearing — without undefined behaviour.
///
/// Both `dst`/`src` region pointers must be 8-byte aligned; `size` must be a
/// multiple of 8 (all slot/log layouts are 8-byte aligned and padded).

void AtomicCopyFromRegion(void* dst, const void* region_src, size_t size);
void AtomicCopyToRegion(void* region_dst, const void* src, size_t size);

/// 64-bit atomic compare-and-swap on a region word (8-byte aligned).
bool AtomicCas64(void* region_addr, uint64_t expected, uint64_t desired,
                 uint64_t* observed);

}  // namespace pandora

#endif  // PANDORA_COMMON_ATOMIC_COPY_H_
