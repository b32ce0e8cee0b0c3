// One copy of each repeated text per database.
//
// A history of a million instances holds a few dozen designers, a handful
// of task labels and input-role lists.  `TextPool` keeps each distinct
// user, task label and role list once and hands out 8-byte handles
// (`Text`, `RoleList`) that read as the value itself.
//
// A comment can take any value, so it never goes in the pool.  Imports
// and records made directly often have none, but a flow run comments
// every product ("produced by <task> in flow '<flow>'") and every
// decomposition, and failure records, annotations and quarantines carry
// one too.  `SparseText` holds it in one pointer: null when empty,
// otherwise one allocation holding the length and the bytes, which is
// smaller than a `std::string` for any text longer than 15 bytes.
//
// A handle stays valid as long as the pool that issued it: entries live
// in node-based sets, which never move a node when they grow (a short
// `std::string` keeps its bytes inside the object, so a pool that moved
// its strings would leave every handle dangling), and a pool moves with
// its database.  Only a mutation adds an entry; readers follow handles
// and never touch the sets.
#pragma once

#include <algorithm>
#include <concepts>
#include <cstddef>
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

/// A text of any value that many owners leave empty: one pointer, null
/// when empty, otherwise one allocation holding the length and the bytes.
class SparseText {
 public:
  SparseText() = default;
  explicit SparseText(std::string_view text) {
    if (text.empty()) return;
    const std::size_t size = text.size();
    bytes_ = std::make_unique_for_overwrite<char[]>(sizeof size + size);
    std::memcpy(bytes_.get(), &size, sizeof size);
    std::memcpy(bytes_.get() + sizeof size, text.data(), size);
  }

  /// The text, valid until this `SparseText` is replaced or destroyed.
  [[nodiscard]] std::string_view get() const {
    if (bytes_ == nullptr) return {};
    std::size_t size = 0;
    std::memcpy(&size, bytes_.get(), sizeof size);
    return {bytes_.get() + sizeof size, size};
  }
  operator std::string_view() const { return get(); }
  [[nodiscard]] bool empty() const { return bytes_ == nullptr; }

  friend bool operator==(const SparseText& a, std::string_view b) {
    return a.get() == b;
  }
  friend std::ostream& operator<<(std::ostream& os, const SparseText& t) {
    return os << t.get();
  }

 private:
  /// A `std::size_t` length, then that many bytes.
  std::unique_ptr<char[]> bytes_;
};

/// One copy of each distinct user, task label and input-role list of a
/// database.  Not thread-safe to add to: callers hold the database's
/// mutation lock.
class TextPool {
 public:
  /// The handle of `text`, added on first sight; "" is the default handle.
  [[nodiscard]] Text text(std::string_view text);
  /// The handle of `roles`, added on first sight; {} is the default handle.
  [[nodiscard]] RoleList roles(std::span<const std::string_view> roles);

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

  std::unordered_set<std::string, support::TextHash, std::equal_to<>> texts_;
  std::unordered_set<std::vector<std::string>, RolesHash, RolesEqual>
      role_lists_;
};

}  // namespace herc::history
