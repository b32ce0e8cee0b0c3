// Stable content hashing for the design-data store.
//
// Instances in the history database share physical data when their content
// hashes collide (the paper's RCS-file analogy: many meta-data instances,
// one stored artifact).  An FNV-1a-style hash over bytes is stable across
// runs and platforms, which `std::hash` is not guaranteed to be.
//
// It is not the published FNV-1a: its offset basis 1469598103934665603 is
// one digit short of FNV's 14695981039346656037, so `fnv1a("a")` is
// 0x44bd8ad473cd9906, not 0xaf63dc4c8601ec8c.  Blob keys on disk are this
// hash, so the constant must never change.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace herc::support {

/// 64-bit FNV-1a steps from the offset basis above.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes);

/// Continues an FNV-1a hash (for hashing several pieces in sequence).
[[nodiscard]] std::uint64_t fnv1a_append(std::uint64_t state,
                                         std::string_view bytes);

/// Renders a hash as 16 lowercase hex digits (the blob key format).
[[nodiscard]] std::string hash_hex(std::uint64_t h);

/// Hashes a string by its text (in memory only, so `std::hash` will do):
/// a container keyed by `std::string` with this hash and
/// `std::equal_to<>` finds a `std::string_view` without copying it.
struct TextHash {
  using is_transparent = void;
  std::size_t operator()(std::string_view text) const noexcept {
    return std::hash<std::string_view>{}(text);
  }
};

}  // namespace herc::support
