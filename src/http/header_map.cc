#include "http/header_map.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <utility>

#include "util/strings.h"

namespace meshnet::http {

namespace headers {

Id intern(std::string_view name) noexcept {
  // Dispatch on length first: the well-known set has at most two names
  // per length, so a lookup is one or two case-insensitive compares.
  switch (name.size()) {
    case 4:
      if (util::iequals(name, kHost)) return Id::kHost;
      break;
    case 11:
      if (util::iequals(name, kSpanId)) return Id::kSpanId;
      if (util::iequals(name, kShedReason)) return Id::kShedReason;
      break;
    case 12:
      if (util::iequals(name, kRequestId)) return Id::kRequestId;
      if (util::iequals(name, kTraceId)) return Id::kTraceId;
      break;
    case 13:
      if (util::iequals(name, kMeshSource)) return Id::kMeshSource;
      break;
    case 14:
      if (util::iequals(name, kContentLength)) return Id::kContentLength;
      break;
    case 15:
      if (util::iequals(name, kMeshPriority)) return Id::kMeshPriority;
      break;
    case 17:
      if (util::iequals(name, kParentSpanId)) return Id::kParentSpanId;
      break;
    case 18:
      if (util::iequals(name, kDeadlineMs)) return Id::kDeadlineMs;
      break;
    case 21:
      if (util::iequals(name, kRetryAttempt)) return Id::kRetryAttempt;
      break;
    default:
      break;
  }
  return Id::kUnknown;
}

}  // namespace headers

namespace {
/// Smallest arena a map takes: room for a sub-request's host, request id,
/// trace ids and priority in one block.
constexpr std::size_t kMinArenaBytes = 128;

/// A block's usable bytes: its whole size class (block capacities are
/// 32-bit, like an Entry's offsets).
std::uint32_t usable_bytes(const net::Payload& block) noexcept {
  return static_cast<std::uint32_t>(block.capacity());
}
}  // namespace

HeaderMap::HeaderMap(const HeaderMap& other) { copy_from(other); }

HeaderMap::HeaderMap(HeaderMap&& other) noexcept { take(other); }

HeaderMap& HeaderMap::operator=(const HeaderMap& other) {
  if (this != &other) copy_from(other);
  return *this;
}

HeaderMap& HeaderMap::operator=(HeaderMap&& other) noexcept {
  if (this != &other) take(other);
  return *this;
}

void HeaderMap::copy_from(const HeaderMap& other) {
  count_ = 0;
  arena_size_ = 0;
  if (other.count_ > entry_capacity()) {
    spill_ = std::make_unique_for_overwrite<Entry[]>(other.count_);
    spill_capacity_ = other.count_;
  }
  const std::size_t live = other.live_bytes();
  if (live > arena_capacity_) {
    arena_block_ = net::Payload::uninitialized(live, &arena_);
    arena_capacity_ = usable_bytes(arena_block_);
  }
  const Entry* from = other.entries();
  Entry* to = entries();
  for (std::uint32_t i = 0; i < other.count_; ++i) {
    const std::uint32_t bytes = from[i].name_size + from[i].value_size;
    to[i] = from[i];
    to[i].offset = arena_size_;
    if (bytes != 0) {
      std::memcpy(arena_ + arena_size_, other.arena_ + from[i].offset,
                  bytes);
    }
    arena_size_ += bytes;
  }
  count_ = other.count_;
}

void HeaderMap::take(HeaderMap& other) noexcept {
  spill_ = std::move(other.spill_);
  arena_block_ = std::move(other.arena_block_);
  arena_ = std::exchange(other.arena_, nullptr);
  count_ = std::exchange(other.count_, 0);
  spill_capacity_ = std::exchange(other.spill_capacity_, 0);
  arena_size_ = std::exchange(other.arena_size_, 0);
  arena_capacity_ = std::exchange(other.arena_capacity_, 0);
  if (!spill_) std::copy_n(other.inline_, count_, inline_);
}

bool HeaderMap::unknown_named(const Entry& e,
                              std::string_view name) const noexcept {
  return e.id == headers::Id::kUnknown &&
         util::iequals(std::string_view(arena_ + e.offset, e.name_size), name);
}

std::size_t HeaderMap::live_bytes() const noexcept {
  std::size_t bytes = 0;
  const Entry* e = entries();
  for (std::uint32_t i = 0; i < count_; ++i) {
    bytes += e[i].name_size + e[i].value_size;
  }
  return bytes;
}

net::Payload HeaderMap::rebuild_arena(std::size_t capacity) {
  char* fresh = nullptr;
  net::Payload block = net::Payload::uninitialized(capacity, &fresh);
  std::uint32_t used = 0;
  Entry* e = entries();
  for (std::uint32_t i = 0; i < count_; ++i) {
    const std::uint32_t bytes = e[i].name_size + e[i].value_size;
    if (bytes != 0) std::memcpy(fresh + used, arena_ + e[i].offset, bytes);
    e[i].offset = used;
    used += bytes;
  }
  arena_size_ = used;
  arena_capacity_ = usable_bytes(block);
  arena_ = fresh;
  std::swap(arena_block_, block);
  return block;
}

void HeaderMap::reserve(std::size_t bytes) {
  if (bytes <= arena_capacity_) return;
  if (bytes > std::numeric_limits<std::uint32_t>::max()) {
    throw std::length_error("HeaderMap: arena too large");
  }
  rebuild_arena(bytes);
}

void HeaderMap::append(headers::Id id, std::string_view name,
                       std::string_view value) {
  const std::size_t name_size =
      id == headers::Id::kUnknown ? name.size() : 0;
  if (name_size > std::numeric_limits<std::uint16_t>::max()) {
    throw std::length_error("HeaderMap: header name too long");
  }
  const std::size_t bytes = name_size + value.size();
  // `name` or `value` may be a view of this map's own arena: the old
  // arena stays alive until they have been copied.
  net::Payload old_arena;
  if (bytes > arena_capacity_ - arena_size_) {
    const std::size_t needed = live_bytes() + bytes;
    if (needed > std::numeric_limits<std::uint32_t>::max()) {
      throw std::length_error("HeaderMap: arena too large");
    }
    old_arena = rebuild_arena(std::min<std::size_t>(
        std::max({needed, 2 * std::size_t{arena_capacity_}, kMinArenaBytes}),
        std::numeric_limits<std::uint32_t>::max()));
  }
  if (count_ == entry_capacity()) {
    const std::size_t capacity = 2 * std::size_t{count_};
    auto grown = std::make_unique_for_overwrite<Entry[]>(capacity);
    std::copy_n(entries(), count_, grown.get());
    spill_ = std::move(grown);
    spill_capacity_ = static_cast<std::uint32_t>(capacity);
  }
  char* out = arena_ + arena_size_;
  for (std::size_t i = 0; i < name_size; ++i) out[i] = util::ascii_lower(name[i]);
  if (!value.empty()) std::memcpy(out + name_size, value.data(), value.size());
  entries()[count_++] =
      Entry{arena_size_, static_cast<std::uint32_t>(value.size()),
            static_cast<std::uint16_t>(name_size), id};
  arena_size_ += static_cast<std::uint32_t>(bytes);
}

void HeaderMap::set(std::string_view name, std::string_view value) {
  remove(name);
  add(name, value);
}

void HeaderMap::set(headers::Id id, std::string_view value) {
  remove(id);
  append(id, headers::name_of(id), value);
}

void HeaderMap::add(std::string_view name, std::string_view value) {
  append(headers::intern(name), name, value);
}

std::optional<std::string_view> HeaderMap::get(std::string_view name) const {
  const headers::Id id = headers::intern(name);
  if (id != headers::Id::kUnknown) return get(id);
  const Entry* e = entries();
  for (std::uint32_t i = 0; i < count_; ++i) {
    if (unknown_named(e[i], name)) return field(i).value;
  }
  return std::nullopt;
}

std::optional<std::string_view> HeaderMap::get(
    headers::Id id) const noexcept {
  const Entry* e = entries();
  for (std::uint32_t i = 0; i < count_; ++i) {
    if (e[i].id == id) return field(i).value;
  }
  return std::nullopt;
}

std::string_view HeaderMap::get_or(std::string_view name,
                                   std::string_view fallback) const {
  return get(name).value_or(fallback);
}

std::string_view HeaderMap::get_or(headers::Id id,
                                   std::string_view fallback) const noexcept {
  return get(id).value_or(fallback);
}

bool HeaderMap::has(std::string_view name) const {
  return get(name).has_value();
}

bool HeaderMap::has(headers::Id id) const noexcept {
  return get(id).has_value();
}

std::size_t HeaderMap::remove(std::string_view name) {
  const headers::Id id = headers::intern(name);
  if (id != headers::Id::kUnknown) return remove(id);
  return erase_where(
      [&](const Entry& e) { return unknown_named(e, name); });
}

std::size_t HeaderMap::remove(headers::Id id) noexcept {
  return erase_where([id](const Entry& e) { return e.id == id; });
}

bool operator==(const HeaderMap& a, const HeaderMap& b) noexcept {
  if (a.count_ != b.count_) return false;
  for (std::uint32_t i = 0; i < a.count_; ++i) {
    const HeaderMap::Field x = a.field(i);
    const HeaderMap::Field y = b.field(i);
    if (x.name != y.name || x.value != y.value) return false;
  }
  return true;
}

}  // namespace meshnet::http
