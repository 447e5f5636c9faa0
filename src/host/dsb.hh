/**
 * @file
 * DSB (Decoded Stream Buffer / µop cache) model.
 *
 * Real DSBs cache decoded µops for 32-byte code windows; fetch windows
 * that hit skip the legacy decoders (MITE). The paper's Fig. 5/6 show
 * gem5's DSB coverage is very low — its instruction working set is far
 * larger than the DSB — which is reproduced here structurally: windows
 * compete for a small set-associative array. On machines without a
 * µop cache (Apple M1), construct with zero windows; every window then
 * reports a miss and decode-bandwidth modeling falls entirely to the
 * (wide) MITE path.
 */

#ifndef G5P_HOST_DSB_HH
#define G5P_HOST_DSB_HH

#include "base/types.hh"
#include "host/tag_array.hh"

namespace g5p::host
{

/** DSB geometry (Cascade Lake-ish defaults). */
struct DsbGeometry
{
    unsigned windows = 512; ///< total 32B-window entries (0 = none)
    unsigned assoc = 8;

    /**
     * Fraction (percent) of code windows that can never live in the
     * DSB: real µop caches reject windows exceeding their per-window
     * µop/branch limits, which branchy simulator code hits often.
     */
    unsigned ineligiblePct = 25;
};

/** The DSB: maps a pc to its 32B window in an LRU tag array. */
class DsbModel
{
  public:
    explicit DsbModel(const DsbGeometry &geometry)
        : geometry_(geometry), windows_(geometry.windows, geometry.assoc)
    {}

    /** Window size covered by one entry. */
    static constexpr unsigned windowBytes = 32;

    /**
     * Look up the window containing @p pc. A miss fills the entry
     * (the window gets decoded by MITE and inserted). @return hit.
     * Inline below so the batched sink loop can fuse it.
     */
    bool access(HostAddr pc);

    bool enabled() const { return geometry_.windows > 0; }

    std::uint64_t hits() const { return windows_.hits(); }
    std::uint64_t misses() const { return windows_.misses() + bypassed_; }

  private:
    DsbGeometry geometry_;
    LruTagArray windows_;
    /** Lookups that never reach the array: no DSB, or an
     *  ineligible window. */
    std::uint64_t bypassed_ = 0;
};

inline bool
DsbModel::access(HostAddr pc)
{
    if (!enabled()) {
        ++bypassed_;
        return false;
    }

    std::uint64_t window = pc / windowBytes;

    // Per-window eligibility is a fixed property of the code.
    std::uint64_t h = window * 0x9e3779b97f4a7c15ULL;
    if ((h >> 33) % 100 < geometry_.ineligiblePct) {
        ++bypassed_;
        return false;
    }
    return windows_.access(window);
}

} // namespace g5p::host

#endif // G5P_HOST_DSB_HH
