// WordArena — recycling limb-storage pool for the packet data plane.
//
// Every BitVector and Payload leases its 64-bit limb array from an arena
// instead of owning a heap allocation. Freed arrays go onto per-size-class
// free lists and are handed back on the next lease, so the encode / recode
// / decode loops — which create and destroy packets at a furious rate but
// over a tiny set of distinct sizes (k-bit code vectors, m-byte payloads)
// — run allocation-free at steady state. Blocks are 64-byte aligned for
// the SIMD kernels and zero-filled on lease, unless the caller asks for
// an uninitialized lease because it overwrites every byte it reads (wire
// frames: an MTU receive buffer then only becomes resident where
// datagrams actually land).
//
// The default arena is thread-local; the main thread's instance is
// intentionally leaked at process exit (static-destruction-order safety:
// a static-duration BitVector may release after the arena's natural
// destruction point). The library is single-threaded per *node*: one
// endpoint's coding state always lives on one thread. Buffers may still
// cross threads by ownership transfer (the SPSC frame rings swap whole
// WordBuf leases between an I/O thread and a shard worker); a buffer
// released on a thread other than the one that leased it simply lands in
// that thread's free lists — the block memory is plain aligned operator
// new, so recycling and freeing it anywhere is safe. Only the per-arena
// Stats become a *local* view then: lease/release balance holds summed
// across the participating threads, not per thread (the threaded tests
// assert exactly that). Worker threads that touched the arena should call
// WordArena::reclaim_local() before exiting so their cached blocks (and
// the arena object itself) are freed rather than leaked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

namespace ltnc {

class WordArena {
 public:
  struct Stats {
    std::uint64_t leases = 0;        ///< total lease calls
    std::uint64_t releases = 0;      ///< total release calls
    std::uint64_t fresh_blocks = 0;  ///< leases served by a new heap block
    std::uint64_t recycled_blocks = 0;  ///< leases served from a free list
    std::uint64_t live_words = 0;    ///< words currently leased out
  };

  WordArena() = default;
  ~WordArena();

  WordArena(const WordArena&) = delete;
  WordArena& operator=(const WordArena&) = delete;

  /// Leases a zero-filled array of at least `words` limbs (64-byte
  /// aligned). Returns nullptr for words == 0.
  std::uint64_t* lease(std::size_t words);

  /// Leases without the zero-fill — for callers that overwrite the whole
  /// array immediately (copies). Same recycling behaviour as lease().
  std::uint64_t* lease_uninitialized(std::size_t words);

  /// Returns an array obtained from lease()/lease_uninitialized() with the
  /// same `words` it was leased with.
  void release(std::uint64_t* ptr, std::size_t words);

  /// Frees every cached block. Outstanding leases stay valid.
  void trim();

  const Stats& stats() const { return stats_; }

  /// The calling thread's default arena (the main thread's is never
  /// destroyed — see header comment). All BitVector/Payload storage flows
  /// through this.
  static WordArena& local();

  /// Destroys the calling thread's default arena, freeing every cached
  /// block — worker-thread exit hygiene, so short-lived shard threads do
  /// not leak their recycling caches (the leak checker would flag them
  /// once the thread's TLS is gone). Every object holding a lease from
  /// this thread must be gone or already transferred to another thread;
  /// a later local() call on this thread starts a fresh arena. The main
  /// thread must not call this (its arena outlives static destructors on
  /// purpose).
  static void reclaim_local();

 private:
  /// Free-list index: words are rounded up to the next power of two so a
  /// released block can serve any lease of the same class.
  static std::size_t class_index(std::size_t words);
  static std::size_t class_words(std::size_t cls) {
    return std::size_t{1} << cls;
  }

  std::vector<std::vector<std::uint64_t*>> free_lists_;
  Stats stats_;
};

/// A leased limb array: the storage type under BitVector and Payload.
/// Move transfers the lease; copy takes a fresh lease and memcpys. The
/// logical word count is fixed at construction.
class WordBuf {
 public:
  WordBuf() = default;

  /// Leases `words` zero-filled limbs from the thread-local arena.
  explicit WordBuf(std::size_t words)
      : ptr_(WordArena::local().lease(words)), words_(words) {}

  /// Leases `words` limbs without the zero-fill: the contents are
  /// unspecified until the caller writes them. For storage whose readers
  /// only ever see bytes a writer put there (wire::Frame); BitVector and
  /// Payload keep the zero-filled lease their tail invariants rely on.
  static WordBuf uninitialized(std::size_t words) {
    WordBuf buf;
    buf.ptr_ = WordArena::local().lease_uninitialized(words);
    buf.words_ = words;
    return buf;
  }

  WordBuf(const WordBuf& other)
      : ptr_(WordArena::local().lease_uninitialized(other.words_)),
        words_(other.words_) {
    if (words_ != 0) std::memcpy(ptr_, other.ptr_, words_ * 8);
  }

  WordBuf(WordBuf&& other) noexcept : ptr_(other.ptr_), words_(other.words_) {
    other.ptr_ = nullptr;
    other.words_ = 0;
  }

  WordBuf& operator=(const WordBuf& other) {
    if (this == &other) return *this;
    if (words_ != other.words_) {
      // Lease before release: if the lease throws, this buffer is
      // untouched and the old block is not double-listed.
      WordArena& arena = WordArena::local();
      std::uint64_t* fresh = arena.lease_uninitialized(other.words_);
      arena.release(ptr_, words_);
      ptr_ = fresh;
      words_ = other.words_;
    }
    if (words_ != 0) std::memcpy(ptr_, other.ptr_, words_ * 8);
    return *this;
  }

  WordBuf& operator=(WordBuf&& other) noexcept {
    if (this == &other) return *this;
    WordArena::local().release(ptr_, words_);
    ptr_ = other.ptr_;
    words_ = other.words_;
    other.ptr_ = nullptr;
    other.words_ = 0;
    return *this;
  }

  ~WordBuf() { WordArena::local().release(ptr_, words_); }

  std::size_t size() const { return words_; }
  std::uint64_t* data() { return ptr_; }
  const std::uint64_t* data() const { return ptr_; }

  std::uint64_t& operator[](std::size_t i) { return ptr_[i]; }
  const std::uint64_t& operator[](std::size_t i) const { return ptr_[i]; }

  void fill_zero() {
    if (words_ != 0) std::memset(ptr_, 0, words_ * 8);
  }

  bool operator==(const WordBuf& other) const {
    return words_ == other.words_ &&
           (words_ == 0 || std::memcmp(ptr_, other.ptr_, words_ * 8) == 0);
  }
  bool operator!=(const WordBuf& other) const { return !(*this == other); }

 private:
  std::uint64_t* ptr_ = nullptr;
  std::size_t words_ = 0;
};

}  // namespace ltnc
