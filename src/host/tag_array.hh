/**
 * @file
 * Set-associative LRU tag array: the one replacement policy behind
 * every host structure — the L1i, L1d, L2 and LLC caches, the iTLB
 * and dTLB, and the DSB. Each structure is a thin front-end that maps
 * its own input to a key (a cache line, a size-tagged page, a decode
 * window); the array holds the entries, the LRU clock, the hit and
 * miss counts and the valid-entry occupancy.
 */

#ifndef G5P_HOST_TAG_ARRAY_HH
#define G5P_HOST_TAG_ARRAY_HH

#include <cstdint>
#include <vector>

namespace g5p::host
{

class LruTagArray
{
  public:
    /**
     * @param entries total entries; entries / assoc sets must be a
     *        power of two. Zero entries builds an empty array for a
     *        machine without the structure; it must not be accessed.
     */
    LruTagArray(std::uint64_t entries, unsigned assoc);

    /**
     * Look up @p key, whose low bits pick the set; fills the LRU way
     * on a miss. @return hit.
     *
     * Defined inline below: this is the innermost step of the
     * per-instruction model chain, and the batched sink loop
     * (HostCore::ops) relies on the whole chain being visible for
     * inlining.
     */
    bool access(std::uint64_t key);

    std::uint64_t hits() const { return hits_; }
    std::uint64_t misses() const { return misses_; }

    /** Entries currently valid (occupancy, Fig. 9). */
    std::uint64_t validEntries() const { return validEntries_; }

  private:
    struct Entry
    {
        std::uint64_t tag = 0;
        bool valid = false;
        /** LRU stamp; 0 until first filled (entries are never
         *  invalidated, and the clock starts at 1). */
        std::uint64_t lastUsed = 0;
    };

    unsigned assoc_;
    unsigned setBits_ = 0;
    std::uint64_t setMask_ = 0;
    std::vector<Entry> entries_;
    std::uint64_t lruCounter_ = 0;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
    std::uint64_t validEntries_ = 0;
};

inline bool
LruTagArray::access(std::uint64_t key)
{
    std::uint64_t tag = key >> setBits_;

    Entry *base = &entries_[(key & setMask_) * assoc_];
    Entry *victim = base;
    for (unsigned w = 0; w < assoc_; ++w) {
        Entry &entry = base[w];
        if (entry.valid && entry.tag == tag) {
            entry.lastUsed = ++lruCounter_;
            ++hits_;
            return true;
        }
        // Oldest stamp wins: an invalid way (stamp 0) if there is
        // one, else the least recently used. One compare keeps this a
        // conditional move; which way wins is data-dependent.
        if (entry.lastUsed < victim->lastUsed)
            victim = &entry;
    }

    ++misses_;
    if (!victim->valid)
        ++validEntries_;
    victim->valid = true;
    victim->tag = tag;
    victim->lastUsed = ++lruCounter_;
    return false;
}

} // namespace g5p::host

#endif // G5P_HOST_TAG_ARRAY_HH
