#include "mesh/tracing.h"

#include <algorithm>
#include <optional>
#include <utility>

namespace meshnet::mesh {

namespace {
constexpr std::string_view kTracePrefix = "trace-";
constexpr std::string_view kSpanPrefix = "span-";
constexpr std::size_t kIdDigits = 16;

/// `prefix` then `id` as 16 lowercase hex digits, written into `buf`.
std::string_view format_id(std::string_view prefix, std::uint64_t id,
                           char (&buf)[32]) noexcept {
  static constexpr char kHex[] = "0123456789abcdef";
  std::copy(prefix.begin(), prefix.end(), buf);
  for (std::size_t i = 0; i < kIdDigits; ++i) {
    buf[prefix.size() + i] = kHex[(id >> (4 * (kIdDigits - 1 - i))) & 0xf];
  }
  return std::string_view(buf, prefix.size() + kIdDigits);
}

/// The id `format_id(prefix, id)` wrote, or 0 when `text` is not in that
/// format.
std::uint64_t parse_id(std::string_view prefix,
                       std::optional<std::string_view> text) noexcept {
  if (!text || text->size() != prefix.size() + kIdDigits ||
      text->substr(0, prefix.size()) != prefix) {
    return 0;
  }
  std::uint64_t id = 0;
  for (const char c : text->substr(prefix.size())) {
    std::uint64_t digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<std::uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<std::uint64_t>(c - 'a' + 10);
    } else {
      return 0;
    }
    id = id << 4 | digit;
  }
  return id;
}
}  // namespace

std::string format_trace_id(std::uint64_t id) {
  char buf[32];
  return std::string(format_id(kTracePrefix, id, buf));
}

TraceContext TraceContext::extract(const http::HeaderMap& headers) noexcept {
  TraceContext ctx;
  ctx.trace_id =
      parse_id(kTracePrefix, headers.get(http::headers::Id::kTraceId));
  ctx.span_id = parse_id(kSpanPrefix, headers.get(http::headers::Id::kSpanId));
  return ctx;
}

void TraceContext::inject(http::HeaderMap& headers,
                          std::uint64_t parent_span_id) const {
  char buf[32];
  headers.set(http::headers::Id::kTraceId,
              format_id(kTracePrefix, trace_id, buf));
  headers.set(http::headers::Id::kSpanId, format_id(kSpanPrefix, span_id, buf));
  if (parent_span_id != 0) {
    headers.set(http::headers::Id::kParentSpanId,
                format_id(kSpanPrefix, parent_span_id, buf));
  }
}

Span Tracer::start_span(std::string_view service, std::string operation,
                        const TraceContext& parent, sim::Time now) {
  Span span;
  span.trace_id = parent.valid() ? parent.trace_id : ++counter_;
  span.parent_span_id = parent.valid() ? parent.span_id : 0;
  span.span_id = ++counter_;
  span.service = service;
  span.operation = std::move(operation);
  span.start = now;
  return span;
}

void Tracer::finish_span(Span span, sim::Time now,
                         obs::SpanExporter::ServiceCells* cells) {
  span.end = now;
  exporter_.export_span(std::move(span), cells);
}

std::vector<const Span*> Tracer::trace(std::uint64_t trace_id) const {
  std::vector<const Span*> out;
  for (const Span& span : exporter_.spans()) {
    if (span.trace_id == trace_id) out.push_back(&span);
  }
  std::sort(out.begin(), out.end(), [](const Span* a, const Span* b) {
    return a->start < b->start;
  });
  return out;
}

}  // namespace meshnet::mesh
