#include "host/cache_model.hh"

#include "base/addr_utils.hh"
#include "base/logging.hh"

namespace g5p::host
{

HostCache::HostCache(const HostCacheGeometry &geometry,
                     unsigned line_bytes)
    : lineShift_(floorLog2(line_bytes)),
      lines_(geometry.sizeBytes / line_bytes, geometry.assoc)
{
    g5p_assert(isPowerOf2(line_bytes),
               "line size (%u) must be a power of two", line_bytes);
}

} // namespace g5p::host
