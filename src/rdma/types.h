#ifndef PANDORA_RDMA_TYPES_H_
#define PANDORA_RDMA_TYPES_H_

#include <cstdint>

namespace pandora {
namespace rdma {

/// Identifies a server (compute or memory) attached to the fabric.
using NodeId = uint16_t;

/// Remote key naming a registered memory region within a protection domain,
/// as in the ibverbs API.
using RKey = uint32_t;

constexpr NodeId kInvalidNodeId = 0xffff;
constexpr RKey kInvalidRKey = 0xffffffff;

/// Maximum number of fabric-attached nodes the simulator supports. Bounds
/// the revocation bitset in each protection domain.
constexpr uint32_t kMaxNodes = 4096;

}  // namespace rdma
}  // namespace pandora

#endif  // PANDORA_RDMA_TYPES_H_
