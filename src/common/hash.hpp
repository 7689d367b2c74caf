/**
 * @file
 * FNV-1a 64-bit hashing (header-only).
 *
 * A cheap, stable fingerprint of a byte string: the term keys of
 * core::SweepTermCache, and the `serve_loadgen` response transcript
 * pinned by its golden.  FNV-1a is not cryptographic; a cache keyed
 * on it must verify the full key on a hash hit to rule out
 * collisions.
 */

#ifndef AMPED_COMMON_HASH_HPP
#define AMPED_COMMON_HASH_HPP

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace amped {

/** FNV-1a offset basis / prime (64-bit variant). */
inline constexpr std::uint64_t kFnv1aOffsetBasis =
    1469598103934665603ULL;
inline constexpr std::uint64_t kFnv1aPrime = 1099511628211ULL;

/** Incremental FNV-1a hasher. */
class Fnv1a
{
  public:
    /** Mixes @p size raw bytes into the state. */
    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            state_ ^= static_cast<std::uint64_t>(p[i]);
            state_ *= kFnv1aPrime;
        }
    }

    /** Mixes a string's bytes (no length prefix; caller delimits). */
    void add(std::string_view text)
    {
        bytes(text.data(), text.size());
    }

    std::uint64_t digest() const { return state_; }

  private:
    std::uint64_t state_ = kFnv1aOffsetBasis;
};

/** One-shot FNV-1a of a byte string. */
inline std::uint64_t
fnv1a64(std::string_view text)
{
    Fnv1a hasher;
    hasher.add(text);
    return hasher.digest();
}

} // namespace amped

#endif // AMPED_COMMON_HASH_HPP
