/**
 * @file
 * Counting cache model for the host side (the "real" machine that
 * runs mg5). Unlike the guest's event-driven mem::Cache, this model
 * tracks tags and hit/miss counts only; latency is charged by the
 * HostCore's cycle accounting. The line size is the platform's one
 * line size (64B Xeon, 128B Apple M1 — one of the paper's Fig. 8
 * explanations), shared by every level.
 */

#ifndef G5P_HOST_CACHE_MODEL_HH
#define G5P_HOST_CACHE_MODEL_HH

#include "base/types.hh"
#include "host/tag_array.hh"

namespace g5p::host
{

/** Geometry of one host cache level. */
struct HostCacheGeometry
{
    std::uint64_t sizeBytes = 32 * 1024;
    unsigned assoc = 8;

    std::uint64_t
    numSets(unsigned line_bytes) const
    {
        return sizeBytes / line_bytes / assoc;
    }
};

/** A cache level: maps an address to its line in an LRU tag array. */
class HostCache
{
  public:
    HostCache(const HostCacheGeometry &geometry, unsigned line_bytes);

    /** Look up @p addr; allocates on miss. @return hit. */
    bool access(HostAddr addr) { return lines_.access(addr >> lineShift_); }

    std::uint64_t hits() const { return lines_.hits(); }
    std::uint64_t misses() const { return lines_.misses(); }

    /** Currently valid lines (occupancy, Fig. 9). */
    std::uint64_t validLines() const { return lines_.validEntries(); }

    /** Occupied bytes. */
    std::uint64_t
    occupancyBytes() const
    {
        return lines_.validEntries() << lineShift_;
    }

  private:
    unsigned lineShift_;
    LruTagArray lines_;
};

} // namespace g5p::host

#endif // G5P_HOST_CACHE_MODEL_HH
