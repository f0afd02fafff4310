#ifndef ECDB_COMMON_SLOT_POOL_H_
#define ECDB_COMMON_SLOT_POOL_H_

#include <cstdint>
#include <vector>

namespace ecdb {

/// Free-list allocation for an index-addressed pool: pops a recycled index
/// from `free`, or appends a default-constructed element to `pool` and
/// returns its index. Recycled elements keep whatever state their owner
/// left in them.
template <typename Pool>
uint32_t TakeSlot(Pool* pool, std::vector<uint32_t>* free) {
  if (free->empty()) {
    pool->emplace_back();
    return static_cast<uint32_t>(pool->size() - 1);
  }
  const uint32_t idx = free->back();
  free->pop_back();
  return idx;
}

}  // namespace ecdb

#endif  // ECDB_COMMON_SLOT_POOL_H_
