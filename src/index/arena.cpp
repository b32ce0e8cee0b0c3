#include "index/arena.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <limits>

#include "support/error.hpp"

namespace herc::index {

namespace {

constexpr std::size_t kMaxOffset = std::numeric_limits<std::uint32_t>::max();

/// Throws unless `end` fits an arena's 32-bit offsets.
void check_offset(std::size_t end, const char* arena) {
  if (end > kMaxOffset) {
    throw support::HistoryError(std::string("index: ") + arena +
                                " outgrew its 32-bit offsets");
  }
}

}  // namespace

// ---- TokenDictionary -------------------------------------------------------

std::size_t TokenDictionary::hash(std::string_view token) {
  return std::hash<std::string_view>{}(token);
}

std::size_t TokenDictionary::slot_of(std::string_view token) const {
  // The table is at most half full, so the probe always meets an empty
  // slot.
  const std::size_t mask = slots_.size() - 1;
  std::size_t slot = hash(token) & mask;
  while (slots_[slot] != 0 && text(slots_[slot] - 1) != token) {
    slot = (slot + 1) & mask;
  }
  return slot;
}

std::optional<std::uint32_t> TokenDictionary::find(
    std::string_view token) const {
  if (slots_.empty()) return std::nullopt;
  const std::uint32_t entry = slots_[slot_of(token)];
  if (entry == 0) return std::nullopt;
  return entry - 1;
}

std::pair<std::uint32_t, bool> TokenDictionary::intern(
    std::string_view token) {
  std::size_t slot = 0;
  if (!slots_.empty()) {
    slot = slot_of(token);
    if (slots_[slot] != 0) return {slots_[slot] - 1, false};
  }
  if (2 * (size() + 1) > slots_.size()) {
    (void)rehash(std::max<std::size_t>(16, 2 * slots_.size()));
    slot = slot_of(token);
  }
  const auto id = static_cast<std::uint32_t>(size());
  append(token);
  slots_[slot] = id + 1;
  return {id, true};
}

void TokenDictionary::append(std::string_view token) {
  // The table stores id + 1, so the new id + 1 must fit.
  check_offset(size() + 1, "token dictionary");
  check_offset(arena_.size() + token.size(), "token dictionary");
  arena_.append(token);
  ends_.push_back(static_cast<std::uint32_t>(arena_.size()));
}

std::optional<std::uint32_t> TokenDictionary::index() {
  return rehash(std::bit_ceil(std::max<std::size_t>(16, 2 * size())));
}

std::optional<std::uint32_t> TokenDictionary::rehash(std::size_t capacity) {
  slots_.assign(capacity, 0);
  for (std::uint32_t id = 0; id < size(); ++id) {
    const std::size_t slot = slot_of(text(id));
    if (slots_[slot] != 0) return id;
    slots_[slot] = id + 1;
  }
  return std::nullopt;
}

// ---- PostingLists ----------------------------------------------------------

std::uint32_t PostingLists::add(std::span<const std::uint32_t> ids) {
  check_offset(size() + 1, "posting lists");
  check_offset(ids_.size() + ids.size(), "posting lists");
  const auto size = static_cast<std::uint32_t>(ids.size());
  runs_.push_back(Run{static_cast<std::uint32_t>(ids_.size()), size, size});
  ids_.insert(ids_.end(), ids.begin(), ids.end());
  return static_cast<std::uint32_t>(runs_.size() - 1);
}

void PostingLists::insert(std::uint32_t list, std::uint32_t id) {
  Run& run = runs_[list];
  std::size_t at = run.size;
  if (run.size > 0 && ids_[run.begin + run.size - 1] >= id) {
    const auto first = ids_.begin() + run.begin;
    const auto pos = std::lower_bound(first, first + run.size, id);
    if (*pos == id) return;
    at = static_cast<std::size_t>(pos - first);
  }
  if (run.size == run.room) make_room(run);
  const auto first = ids_.begin() + run.begin;
  std::copy_backward(first + at, first + run.size, first + run.size + 1);
  first[at] = id;
  ++run.size;
}

void PostingLists::make_room(Run& run) {
  if (run.begin + run.room == ids_.size()) {
    check_offset(ids_.size() + 1, "posting lists");
    ids_.push_back(0);
    ++run.room;
    return;
  }
  const std::size_t room =
      std::max<std::size_t>(1, 2 * static_cast<std::size_t>(run.room));
  const std::size_t begin = ids_.size();
  check_offset(begin + room, "posting lists");
  ids_.resize(begin + room);
  std::copy_n(ids_.begin() + run.begin, run.size, ids_.begin() + begin);
  run.begin = static_cast<std::uint32_t>(begin);
  run.room = static_cast<std::uint32_t>(room);
}

}  // namespace herc::index
