// The flat layouts behind the keyword index (src/index).
//
// A large history holds about a million distinct name tokens, almost all
// of them posted under a single instance.  One heap object per token — a
// `std::string`, a hash-map node and a one-element `std::vector` — costs
// far more than the token itself, so both structures keep their entries
// back to back in one arena each and address them with 32-bit offsets:
//
//   TokenDictionary  token texts in a text arena, one end offset per id,
//                    and an open-addressing table of ids hashed by text
//   PostingLists     every token's instance ids in one id arena, one
//                    (begin, size, room) run per token
//
// Views handed out (`text`, `operator[]`) point into an arena, so they
// stay valid only until the next mutation of the same structure.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace herc::index {

/// Token id <-> text, ids dense in first-seen order.  The id table is
/// derived (rebuilt as tokens are interned) and never persisted.
class TokenDictionary {
 public:
  /// Number of tokens.
  [[nodiscard]] std::size_t size() const { return ends_.size(); }

  /// The text of token `id` (< `size()`).
  [[nodiscard]] std::string_view text(std::uint32_t id) const {
    const std::uint32_t begin = id == 0 ? 0 : ends_[id - 1];
    return {arena_.data() + begin, ends_[id] - begin};
  }

  /// The id of `token`, or nullopt.
  [[nodiscard]] std::optional<std::uint32_t> find(
      std::string_view token) const;

  /// The id of `token`, adding it first when it is new; `second` says
  /// whether it was.  Throws `HistoryError` when the arena would outgrow
  /// its 32-bit offsets.
  std::pair<std::uint32_t, bool> intern(std::string_view token);

  /// Adds `token` under the next id without entering it in the id table,
  /// for a loader that takes every token in turn and then calls `index`
  /// once.  Throws as `intern` does.
  void append(std::string_view token);

  /// Builds the id table over every token, sized once for all of them.
  /// Returns the first id whose text an earlier id already holds (the
  /// dictionary is then unusable), or nullopt.
  [[nodiscard]] std::optional<std::uint32_t> index();

  /// Slots in the id table: 0 before the first token, then a power of two
  /// at least twice `size()`.
  [[nodiscard]] std::size_t capacity() const { return slots_.size(); }

  /// The hash that homes `token` at slot `hash(token) & (capacity() - 1)`;
  /// a taken slot sends it on to the next one up.
  [[nodiscard]] static std::size_t hash(std::string_view token);

 private:
  /// The slot holding `token`'s id, or the empty slot where it would go.
  [[nodiscard]] std::size_t slot_of(std::string_view token) const;
  /// Rebuilds the id table at `capacity` slots; returns as `index` does.
  std::optional<std::uint32_t> rehash(std::size_t capacity);

  std::string arena_;
  /// One past the last byte of token `id`'s text; it starts where token
  /// `id - 1` ends.
  std::vector<std::uint32_t> ends_;
  /// Token id + 1 per slot; 0 marks an empty slot.
  std::vector<std::uint32_t> slots_;
};

/// One posting list per token id, all in one arena of instance ids.
class PostingLists {
 public:
  /// Number of lists.
  [[nodiscard]] std::size_t size() const { return runs_.size(); }

  /// The ids of list `list` (< `size()`).
  [[nodiscard]] std::span<const std::uint32_t> operator[](
      std::uint32_t list) const {
    const Run& run = runs_[list];
    return {ids_.data() + run.begin, run.size};
  }

  /// Appends a list holding `ids` as given and returns its index.
  std::uint32_t add(std::span<const std::uint32_t> ids = {});

  /// Inserts `id` into `list`, keeping the list ascending and unique.  An
  /// id below the list's last one (an annotation of an old instance) is
  /// placed by binary search.
  void insert(std::uint32_t list, std::uint32_t id);

  /// Sizes the run table for `lists` lists.
  void reserve(std::size_t lists) { runs_.reserve(lists); }

 private:
  /// List `t` fills `ids_[begin, begin + size)` and owns the arena up to
  /// `begin + room`.
  struct Run {
    std::uint32_t begin = 0;
    std::uint32_t size = 0;
    std::uint32_t room = 0;
  };

  /// Gives a full run room for one more id: a run that ends the arena
  /// grows in place, any other moves to the arena's end with twice the
  /// room, leaving its old place unused.
  void make_room(Run& run);

  std::vector<std::uint32_t> ids_;
  std::vector<Run> runs_;
};

}  // namespace herc::index
