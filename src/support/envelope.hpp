// One checksummed envelope for the bytes herc must trust after they leave
// memory: journal frames, replication payloads and the index image.
//
//   u32 LE length | u32 LE checksum | payload
//
// The checksum is a 64-bit FNV-1a (support/hash.hpp) over the four length
// bytes and then the payload, folded to 32 bits.  Whatever names a payload
// (a stream position, an index stamp) goes inside it, under the checksum.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace herc::support {

inline constexpr std::size_t kEnvelopeHeaderBytes = 8;  // length + checksum

/// Little-endian integers: `put_*` appends `v`, `get_*` reads at `at`.
void put_le32(std::string& out, std::uint32_t v);
void put_le64(std::string& out, std::uint64_t v);
[[nodiscard]] std::uint32_t get_le32(std::string_view bytes, std::size_t at);
[[nodiscard]] std::uint64_t get_le64(std::string_view bytes, std::size_t at);

/// The checksum of an envelope around `payload`.
[[nodiscard]] std::uint32_t envelope_checksum(std::string_view payload);

/// The same checksum over a payload of `length` bytes taken in pieces, for
/// a reader that never holds the payload whole; `envelope_checksum` (and so
/// `seal` and `unseal`) is one piece of it.
class EnvelopeChecksum {
 public:
  explicit EnvelopeChecksum(std::uint32_t length);
  void add(std::string_view piece);
  [[nodiscard]] std::uint32_t value() const;

 private:
  std::uint64_t state_;
};

/// Appends the envelope around `payload` to `out`.  Throws `HistoryError`
/// when the payload does not fit a 32-bit length.
void seal(std::string& out, std::string_view payload);

/// The payload of the envelope at the front of `bytes`, or nullopt when
/// `bytes` end first or the checksum fails.  Bytes after it are the
/// caller's; `unseal_exact` refuses them.
[[nodiscard]] std::optional<std::string_view> unseal(std::string_view bytes);
[[nodiscard]] std::optional<std::string_view> unseal_exact(
    std::string_view bytes);

}  // namespace herc::support
