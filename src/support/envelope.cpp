#include "support/envelope.hpp"

#include <limits>

#include "support/error.hpp"
#include "support/hash.hpp"

namespace herc::support {

void put_le32(std::string& out, std::uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out.push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void put_le64(std::string& out, std::uint64_t v) {
  put_le32(out, static_cast<std::uint32_t>(v));
  put_le32(out, static_cast<std::uint32_t>(v >> 32));
}

std::uint32_t get_le32(std::string_view bytes, std::size_t at) {
  std::uint32_t v = 0;
  for (std::size_t i = 4; i-- > 0;) {
    v = (v << 8) | static_cast<unsigned char>(bytes[at + i]);
  }
  return v;
}

std::uint64_t get_le64(std::string_view bytes, std::size_t at) {
  return get_le32(bytes, at) |
         (static_cast<std::uint64_t>(get_le32(bytes, at + 4)) << 32);
}

EnvelopeChecksum::EnvelopeChecksum(std::uint32_t length) {
  std::string bytes;
  put_le32(bytes, length);
  state_ = fnv1a(bytes);
}

void EnvelopeChecksum::add(std::string_view piece) {
  state_ = fnv1a_append(state_, piece);
}

std::uint32_t EnvelopeChecksum::value() const {
  return static_cast<std::uint32_t>(state_ ^ (state_ >> 32));
}

std::uint32_t envelope_checksum(std::string_view payload) {
  EnvelopeChecksum checksum(static_cast<std::uint32_t>(payload.size()));
  checksum.add(payload);
  return checksum.value();
}

void seal(std::string& out, std::string_view payload) {
  if (payload.size() > std::numeric_limits<std::uint32_t>::max()) {
    throw HistoryError("envelope: a payload of " +
                       std::to_string(payload.size()) +
                       " bytes does not fit a 32-bit length");
  }
  out.reserve(out.size() + kEnvelopeHeaderBytes + payload.size());
  put_le32(out, static_cast<std::uint32_t>(payload.size()));
  put_le32(out, envelope_checksum(payload));
  out += payload;
}

std::optional<std::string_view> unseal(std::string_view bytes) {
  if (bytes.size() < kEnvelopeHeaderBytes ||
      get_le32(bytes, 0) > bytes.size() - kEnvelopeHeaderBytes) {
    return std::nullopt;
  }
  const std::string_view payload =
      bytes.substr(kEnvelopeHeaderBytes, get_le32(bytes, 0));
  if (envelope_checksum(payload) != get_le32(bytes, 4)) return std::nullopt;
  return payload;
}

std::optional<std::string_view> unseal_exact(std::string_view bytes) {
  std::optional<std::string_view> payload = unseal(bytes);
  if (payload && kEnvelopeHeaderBytes + payload->size() != bytes.size()) {
    payload.reset();
  }
  return payload;
}

}  // namespace herc::support
