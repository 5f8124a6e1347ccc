#pragma once

// Order-preserving, case-insensitive HTTP header collection, plus the
// well-known header names the mesh and the cross-layer case study use.
//
// Well-known names are interned to a small integer Id at insertion, so
// the hot paths — priority classification, provenance propagation,
// tracing, content-length handling — look headers up by integer compare
// with no per-lookup case-folding or string allocation. Unknown names
// fall back to the case-insensitive linear scan.
//
// A map keeps its names and values in one byte arena, a block of net's
// thread-local payload pool, and its entries in a small inline array, so
// the per-hop header work of a sidecar (parse, stamp, propagate, copy for
// retry, encode) reaches the allocator only while the pool is cold.
// Lookups return string_views into the arena: a view is valid until the
// next mutation of the map it came from.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <memory>
#include <optional>
#include <string_view>

#include "net/payload.h"

namespace meshnet::http {

namespace headers {
inline constexpr std::string_view kContentLength = "content-length";
inline constexpr std::string_view kHost = "host";
/// Global request id propagated by apps so the mesh can correlate the
/// sub-requests a service spawns with the inbound request that caused
/// them (Istio/Envoy's x-request-id).
inline constexpr std::string_view kRequestId = "x-request-id";
/// The case study's custom priority header (paper §4.3 impl. step 1):
/// "high" or "low", set at the ingress/front-end and propagated by the
/// provenance filter.
inline constexpr std::string_view kMeshPriority = "x-mesh-priority";
/// Distributed-tracing span context: trace id and parent span id.
inline constexpr std::string_view kTraceId = "x-b3-traceid";
inline constexpr std::string_view kSpanId = "x-b3-spanid";
inline constexpr std::string_view kParentSpanId = "x-b3-parentspanid";
/// Number of upstream retry attempts already made (Envoy convention).
inline constexpr std::string_view kRetryAttempt = "x-envoy-attempt-count";
/// Peer service identity stamped by the provenance filter.
inline constexpr std::string_view kMeshSource = "x-mesh-source";
/// Milliseconds left on the caller's armed request deadline, stamped by
/// the outbound sidecar so the serving sidecar's admission controller
/// can shed requests whose deadline is already unmeetable.
inline constexpr std::string_view kDeadlineMs = "x-mesh-deadline-ms";
/// Shed marker on admission-control 503s: carries the shed reason and
/// tells the caller's retry logic not to amplify the overload.
inline constexpr std::string_view kShedReason = "x-mesh-shed";

/// Interned ids for the well-known names above. kUnknown means "not a
/// well-known header"; such entries are matched by case-insensitive
/// string comparison instead.
enum class Id : std::uint8_t {
  kUnknown = 0,
  kContentLength,
  kHost,
  kRequestId,
  kMeshPriority,
  kTraceId,
  kSpanId,
  kParentSpanId,
  kRetryAttempt,
  kMeshSource,
  kDeadlineMs,
  kShedReason,
};

/// Id for `name` (case-insensitive), or Id::kUnknown.
Id intern(std::string_view name) noexcept;

/// Canonical lowercase name for a well-known id ("" for kUnknown).
constexpr std::string_view name_of(Id id) noexcept {
  // Indexed by Id, in declaration order.
  constexpr std::string_view kNames[] = {
      "",          kContentLength, kHost,        kRequestId,
      kMeshPriority, kTraceId,     kSpanId,      kParentSpanId,
      kRetryAttempt, kMeshSource,  kDeadlineMs,  kShedReason,
  };
  static_assert(std::size(kNames) ==
                static_cast<std::size_t>(Id::kShedReason) + 1);
  return kNames[static_cast<std::size_t>(id)];
}
}  // namespace headers

/// The headers of one message. Entries live in a small inline array
/// (spilling to the heap only past kInlineEntries) over one byte arena
/// per map: a well-known name is stored as its Id alone, an unknown name
/// is lowercased into the arena once, at add(), and each value is copied
/// in once. The arena is a pooled block the map alone holds, used up to
/// its whole size class: building a map by parsing or by copying takes
/// one block, later sets append to it until it is full, and a full arena
/// is compacted into a bigger block. A copy gets a block of its own.
///
/// Every string_view a map hands out (get, get_or, iteration) points into
/// its arena and stays valid until the next mutation of that map (set,
/// add, remove, reserve, assignment). A caller that keeps a value copies
/// it explicitly. Passing a view of a map's own value back into the same
/// map's set/add is allowed.
class HeaderMap {
 public:
  /// One header, as views into the map.
  struct Field {
    headers::Id id;          ///< kUnknown for names that are not well-known
    std::string_view name;   ///< lowercase
    std::string_view value;
  };

  /// Entries in insertion order.
  class Iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Field;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Field;

    Iterator() noexcept = default;
    Field operator*() const noexcept { return map_->field(index_); }
    Iterator& operator++() noexcept {
      ++index_;
      return *this;
    }
    Iterator operator++(int) noexcept {
      Iterator before = *this;
      ++index_;
      return before;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) noexcept {
      return a.index_ == b.index_;
    }

   private:
    friend class HeaderMap;
    Iterator(const HeaderMap* map, std::size_t index) noexcept
        : map_(map), index_(index) {}
    const HeaderMap* map_ = nullptr;
    std::size_t index_ = 0;
  };

  /// Entries held without a heap array.
  static constexpr std::size_t kInlineEntries = 12;

  /// Not defaulted: `HeaderMap{}` would then zero the inline entries.
  HeaderMap() noexcept {}
  HeaderMap(const HeaderMap& other);
  HeaderMap(HeaderMap&& other) noexcept;
  HeaderMap& operator=(const HeaderMap& other);
  HeaderMap& operator=(HeaderMap&& other) noexcept;

  /// Removes every value for the name, then appends `value` at the end.
  void set(std::string_view name, std::string_view value);
  void set(headers::Id id, std::string_view value);

  /// Appends a possibly-duplicate header.
  void add(std::string_view name, std::string_view value);

  /// First value for the name, case-insensitively.
  std::optional<std::string_view> get(std::string_view name) const;
  std::optional<std::string_view> get(headers::Id id) const noexcept;

  /// First value for the name, or `fallback` (which must outlive the
  /// returned view).
  std::string_view get_or(std::string_view name,
                          std::string_view fallback) const;
  std::string_view get_or(headers::Id id,
                          std::string_view fallback) const noexcept;

  bool has(std::string_view name) const;
  bool has(headers::Id id) const noexcept;

  /// Removes all values for the name; returns how many were removed.
  std::size_t remove(std::string_view name);
  std::size_t remove(headers::Id id) noexcept;

  /// Makes room for `bytes` of names and values in total, so that adds
  /// and sets up to that size do not allocate.
  void reserve(std::size_t bytes);

  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  Iterator begin() const noexcept { return Iterator(this, 0); }
  Iterator end() const noexcept { return Iterator(this, count_); }

  /// Same headers, names and values, in the same order.
  friend bool operator==(const HeaderMap& a, const HeaderMap& b) noexcept;

 private:
  /// A header's bytes are contiguous in the arena: the lowercased name
  /// (unknown names only; name_size is 0 for a well-known Id), then the
  /// value.
  struct Entry {
    std::uint32_t offset;
    std::uint32_t value_size;
    std::uint16_t name_size;
    headers::Id id;
  };

  Entry* entries() noexcept { return spill_ ? spill_.get() : inline_; }
  const Entry* entries() const noexcept {
    return spill_ ? spill_.get() : inline_;
  }
  std::size_t entry_capacity() const noexcept {
    return spill_ ? spill_capacity_ : kInlineEntries;
  }
  Field field(std::size_t i) const noexcept {
    const Entry& e = entries()[i];
    const char* bytes = arena_ + e.offset;
    return Field{e.id,
                 e.id == headers::Id::kUnknown
                     ? std::string_view(bytes, e.name_size)
                     : headers::name_of(e.id),
                 std::string_view(bytes + e.name_size, e.value_size)};
  }
  /// True when `e` has an unknown name equal to `name`, ignoring case.
  bool unknown_named(const Entry& e, std::string_view name) const noexcept;
  /// Bytes of the entries still present (the arena also holds the dead
  /// bytes of removed ones until it is next compacted).
  std::size_t live_bytes() const noexcept;

  void append(headers::Id id, std::string_view name, std::string_view value);
  /// Compacts the live entries into a fresh arena of at least `capacity`
  /// bytes and returns the old block, which the caller may still be
  /// reading from.
  net::Payload rebuild_arena(std::size_t capacity);
  /// Empties the map, keeping its arena and entry array, then copies
  /// `other` in.
  void copy_from(const HeaderMap& other);
  /// Takes `other`'s entries and arena, leaving it empty.
  void take(HeaderMap& other) noexcept;

  /// Drops every entry that satisfies `pred`; returns how many.
  template <typename Pred>
  std::size_t erase_where(Pred pred) noexcept {
    Entry* e = entries();
    std::uint32_t out = 0;
    for (std::uint32_t i = 0; i < count_; ++i) {
      if (pred(e[i])) continue;
      e[out++] = e[i];
    }
    const std::size_t removed = count_ - out;
    count_ = out;
    return removed;
  }

  Entry inline_[kInlineEntries];  ///< used while spill_ is null
  std::unique_ptr<Entry[]> spill_;
  /// The arena's pooled block, shared with nothing, and its bytes.
  net::Payload arena_block_;
  char* arena_ = nullptr;
  std::uint32_t count_ = 0;
  std::uint32_t spill_capacity_ = 0;
  std::uint32_t arena_size_ = 0;  ///< bytes used, dead ones included
  std::uint32_t arena_capacity_ = 0;
};

}  // namespace meshnet::http
