#include "host/tag_array.hh"

#include "base/addr_utils.hh"
#include "base/logging.hh"

namespace g5p::host
{

LruTagArray::LruTagArray(std::uint64_t entries, unsigned assoc)
    : assoc_(assoc), entries_(entries)
{
    if (entries == 0)
        return;
    std::uint64_t sets = assoc ? entries / assoc : 0;
    g5p_assert(sets > 0 && isPowerOf2(sets),
               "tag array sets (%llu entries / %u ways) must be a "
               "power of two", (unsigned long long)entries, assoc);
    setBits_ = floorLog2(sets);
    setMask_ = sets - 1;
}

} // namespace g5p::host
