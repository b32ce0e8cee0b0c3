// A growable sequence that never moves its elements.
//
// `std::vector` grows by doubling: it allocates twice the room, moves every
// element across and frees the old block, so a table of a million records
// touches its memory twice over and, while it moves, holds both blocks.
// `Chunked` keeps its elements in fixed-size chunks instead and grows by
// one chunk at a time: appending never moves an element, and a reference
// to one stays valid until the sequence is destroyed or moved from.
// Indexing is one shift and one mask.
#pragma once

#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

namespace herc::support {

template <class T>
class Chunked {
 public:
  /// Elements per chunk.
  static constexpr std::size_t kChunkBits = 12;
  static constexpr std::size_t kChunk = std::size_t{1} << kChunkBits;

  Chunked() = default;
  Chunked(Chunked&& other) noexcept
      : chunks_(std::move(other.chunks_)),
        size_(std::exchange(other.size_, 0)) {}
  Chunked& operator=(Chunked&& other) noexcept {
    if (this != &other) {
      clear();
      chunks_ = std::move(other.chunks_);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~Chunked() { clear(); }

  [[nodiscard]] std::size_t size() const { return size_; }

  [[nodiscard]] T& operator[](std::size_t i) {
    return chunks_[i >> kChunkBits].get()[i & (kChunk - 1)];
  }
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return chunks_[i >> kChunkBits].get()[i & (kChunk - 1)];
  }
  [[nodiscard]] T& back() { return (*this)[size_ - 1]; }

  /// Constructs an element at the end, taking a new chunk when the last
  /// one is full, and returns it.
  template <class... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == chunks_.size() * kChunk) {
      std::unique_ptr<T, Free> chunk(std::allocator<T>().allocate(kChunk));
      chunks_.push_back(std::move(chunk));
    }
    T* const slot = &(*this)[size_];
    std::construct_at(slot, std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void push_back(T&& value) { emplace_back(std::move(value)); }

  /// Reads the elements in order.
  class const_iterator {
   public:
    const_iterator(const Chunked* owner, std::size_t at)
        : owner_(owner), at_(at) {}
    const T& operator*() const { return (*owner_)[at_]; }
    const_iterator& operator++() {
      ++at_;
      return *this;
    }
    bool operator==(const const_iterator& other) const {
      return at_ == other.at_;
    }

   private:
    const Chunked* owner_;
    std::size_t at_;
  };

  [[nodiscard]] const_iterator begin() const { return {this, 0}; }
  [[nodiscard]] const_iterator end() const { return {this, size_}; }

 private:
  /// Destroys every element and frees every chunk.
  void clear() {
    for (std::size_t i = size_; i > 0; --i) std::destroy_at(&(*this)[i - 1]);
    size_ = 0;
    chunks_.clear();
  }

  /// Frees a chunk's storage; its elements are destroyed by `clear`.
  struct Free {
    void operator()(T* chunk) const {
      std::allocator<T>().deallocate(chunk, kChunk);
    }
  };

  std::vector<std::unique_ptr<T, Free>> chunks_;
  std::size_t size_ = 0;
};

}  // namespace herc::support
