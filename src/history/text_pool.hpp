// One copy of each repeated text per database, and one arena for the
// rest of what its instances hold.
//
// A history of a million instances holds a few dozen designers, a handful
// of task labels and input-role lists.  `TextPool` keeps each distinct
// user, task label and role list once and hands out 8-byte handles
// (`Text`, `RoleList`) that read as the value itself.
//
// A name or a comment can take any value, and an instance's input ids
// are its own, so none of them is deduplicated: each is one run in the
// pool's arena, a `std::uint32_t` count and then the bytes or the ids,
// and the instance holds an 8-byte `ArenaRun` handle to it that reads as
// a `std::string_view` (`ArenaText`) or a `std::span` (`ArenaIds`).  The
// empty run is the null handle, which costs the arena nothing: imports
// have no inputs, and records made directly often have no comment (a flow
// run comments every product, "produced by <task> in flow '<flow>'").
// The arena only grows: a name or comment that `annotate` or `quarantine`
// replaces keeps its old bytes until the database is next loaded.
//
// A handle stays valid as long as the pool that issued it: set entries
// are nodes, which never move when the sets grow (a short `std::string`
// keeps its bytes inside the object, so a pool that moved its strings
// would leave every handle dangling), arena blocks are never moved or
// freed before the pool, and a pool moves with its database.  So a handle
// reads without the database, and an `Instance` is trivially destructible.
// Only a mutation adds an entry or a run; readers follow handles and never
// touch the sets or the arena's cursor.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <functional>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <unordered_set>
#include <vector>

#include "data/instance_id.hpp"
#include "support/hash.hpp"

namespace herc::history {

/// A handle to one entry of a `TextPool`; the default handle reads as the
/// empty value.
template <class T>
class Pooled {
  /// A text compares with any string without copying it.
  using Other = std::conditional_t<std::same_as<T, std::string>,
                                   std::string_view, const T&>;

 public:
  Pooled() = default;

  [[nodiscard]] const T& get() const {
    return entry_ != nullptr ? *entry_ : kEmpty;
  }
  operator const T&() const { return get(); }
  operator std::string_view() const
    requires std::same_as<T, std::string>
  {
    return get();
  }

  friend bool operator==(const Pooled& a, Other b) { return a.get() == b; }
  friend std::ostream& operator<<(std::ostream& os, const Pooled& p)
    requires std::same_as<T, std::string>
  {
    return os << p.get();
  }

 private:
  friend class TextPool;
  explicit Pooled(const T* entry) : entry_(entry) {}

  static inline const T kEmpty;
  const T* entry_ = nullptr;
};

using Text = Pooled<std::string>;
using RoleList = Pooled<std::vector<std::string>>;

/// A handle to one run of a `TextPool`'s arena: a `std::uint32_t` count,
/// then that many `T`s.  It reads as the run, a `std::string_view` for
/// bytes and a `std::span<const T>` otherwise; the default handle is the
/// empty run.
template <class T>
class ArenaRun {
 public:
  using View = std::conditional_t<std::same_as<T, char>, std::string_view,
                                  std::span<const T>>;

  ArenaRun() = default;

  [[nodiscard]] View get() const { return View(data(), size()); }
  operator View() const { return get(); }

  [[nodiscard]] bool empty() const { return run_ == nullptr; }
  [[nodiscard]] std::size_t size() const {
    std::uint32_t count = 0;
    if (run_ != nullptr) std::memcpy(&count, run_, sizeof count);
    return count;
  }
  [[nodiscard]] const T* data() const {
    return run_ == nullptr
               ? nullptr
               : reinterpret_cast<const T*>(run_ + sizeof(std::uint32_t));
  }
  [[nodiscard]] const T* begin() const { return data(); }
  [[nodiscard]] const T* end() const { return data() + size(); }
  [[nodiscard]] const T& operator[](std::size_t i) const { return data()[i]; }
  [[nodiscard]] const T& front() const { return *data(); }
  [[nodiscard]] const T& back() const { return end()[-1]; }

  friend bool operator==(const ArenaRun& a, View b) {
    return std::ranges::equal(a.get(), b);
  }
  friend std::ostream& operator<<(std::ostream& os, const ArenaRun& t)
    requires std::same_as<T, char>
  {
    return os << t.get();
  }
  friend std::string operator+(std::string a, const ArenaRun& b)
    requires std::same_as<T, char>
  {
    return a.append(b.get());
  }

 private:
  friend class TextPool;
  explicit ArenaRun(const std::byte* run) : run_(run) {}

  /// The run's count, then its elements; null for the empty run.
  const std::byte* run_ = nullptr;
};

/// A name or a comment.
using ArenaText = ArenaRun<char>;
/// A derivation's input ids.
using ArenaIds = ArenaRun<data::InstanceId>;

/// One copy of each distinct user, task label and input-role list of a
/// database, and the arena of its names, comments and input ids.  Not
/// thread-safe to add to: callers hold the database's mutation lock.
class TextPool {
 public:
  /// Arena bytes taken from the allocator at a time.  A run longer than
  /// an eighth of this gets a block of its own.
  static constexpr std::size_t kArenaBlockBytes = 64 * 1024;

  TextPool() = default;
  /// A moved-from pool holds nothing, so it never writes into the blocks
  /// it handed over.
  TextPool(TextPool&& other) noexcept;
  TextPool& operator=(TextPool&& other) noexcept;

  /// The handle of `text`, added on first sight; "" is the default handle.
  [[nodiscard]] Text text(std::string_view text);
  /// The handle of `roles`, added on first sight; {} is the default handle.
  [[nodiscard]] RoleList roles(std::span<const std::string_view> roles);

  /// `text` as a new run of the arena; "" is the default handle.  Throws
  /// `HistoryError`, adding nothing, for a text of 2^32 bytes or more.
  [[nodiscard]] ArenaText copy(std::string_view text);
  /// `ids` as a run of the arena; {} is the default handle.  The staged
  /// run (`staged_ids`) is kept where it is rather than copied.
  [[nodiscard]] ArenaIds copy(std::span<const data::InstanceId> ids);

  /// Appends `id` to the staged run: ids a reader parses one at a time,
  /// written at the arena's end before their count is known, so that
  /// `copy` keeps them without copying.  Any other use of the arena
  /// drops the staged run, and so does `clear_staged`.
  void stage_id(data::InstanceId id);
  [[nodiscard]] std::span<const data::InstanceId> staged_ids() const;
  void clear_staged() { staged_ = 0; }

 private:
  /// Hashes and compares a role list by its texts, so a list of views
  /// finds its entry without being copied.
  struct RolesHash {
    using is_transparent = void;
    std::size_t operator()(const std::vector<std::string>& roles) const;
    std::size_t operator()(std::span<const std::string_view> roles) const;
  };
  struct RolesEqual {
    using is_transparent = void;
    template <class A, class B>
    bool operator()(const A& a, const B& b) const {
      return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                        [](std::string_view x, std::string_view y) {
                          return x == y;
                        });
    }
  };

  /// A new run of `count` elements holding `bytes` bytes, written from
  /// `from` after its count.
  [[nodiscard]] const std::byte* add_run(std::uint32_t count,
                                         const void* from, std::size_t bytes);
  /// Makes `bytes` (a multiple of 4) free at `free_`, in a new block
  /// when they do not fit, carrying the staged run there.
  void make_room(std::size_t bytes);

  std::unordered_set<std::string, support::TextHash, std::equal_to<>> texts_;
  std::unordered_set<std::vector<std::string>, RolesHash, RolesEqual>
      role_lists_;
  std::vector<std::unique_ptr<std::byte[]>> blocks_;
  /// The next free byte of the block being filled, 4-aligned, and how
  /// many follow it there.
  std::byte* free_ = nullptr;
  std::size_t room_ = 0;
  /// Ids staged after the count slot at `free_`.
  std::uint32_t staged_ = 0;
};

}  // namespace herc::history
