#ifndef PDX_SERVE_PROTOCOL_H_
#define PDX_SERVE_PROTOCOL_H_

// The pdxd wire protocol: line-delimited JSON, one request object per
// line, one response object per line, over a Unix or TCP stream (see
// serve/server.h for the transport). The handler is transport-free so
// tests drive it directly.
//
// Request object:
//   {"id": <any>,            // echoed verbatim in the response
//    "verb": "ping" | "load" | "write" | "retract" | "exists" |
//            "certain" | "contains" | "stats" | "evict" | "shutdown"
//            (the verb table in serve/verbs.h),
//    "tenant": "<hex id>",   // every verb except ping/load/stats/shutdown
//    "deadline_ms": 30000,   // optional per-request deadline
//    "setting": "...",       // load: setting file text
//    "facts": "E(a,b).",     // load (optional initial facts) / write /
//                            // retract / contains: instance text
//    "query": "q(x) :- ...", // certain
//    "mode": "exact",        // certain: exact | lower_bound
//    "solver": "auto"}       // exists: auto | ctract | generic
//
// Response object: {"id": <echo>, "ok": true, ...verb fields...} or
// {"id": <echo>, "ok": false, "error": {"code": "INVALID_ARGUMENT",
// "message": "..."}}. Read and write responses carry "generation" (the
// pinned generation's sequence number) and "fingerprint" (hex of its
// canonical fingerprint) — the observables the snapshot-isolation tests
// assert on.

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "serve/json.h"
#include "serve/registry.h"
#include "serve/verbs.h"

namespace pdx {
namespace serve {

struct ProtocolOptions {
  // Deadline applied when a request carries none.
  int64_t default_deadline_ms = 30'000;
};

class ProtocolHandler {
 public:
  ProtocolHandler(TenantRegistry* registry, ProtocolOptions options)
      : registry_(registry), options_(options) {}

  // Handles one request line and returns the single-line JSON response
  // (no trailing newline). Never throws, never crashes on malformed
  // input — bad requests come back as ok=false responses. Sets
  // *shutdown_requested (may be null) when the line was a `shutdown`
  // verb; the transport is responsible for acting on it *after* writing
  // the response.
  std::string HandleLine(std::string_view line, bool* shutdown_requested);

 private:
  // `verb` is the request's parsed "verb" field (nullopt when missing or
  // unknown).
  JsonValue Dispatch(const JsonValue& request, std::optional<Verb> verb,
                     bool* shutdown_requested);

  TenantRegistry* registry_;
  ProtocolOptions options_;
};

}  // namespace serve
}  // namespace pdx

#endif  // PDX_SERVE_PROTOCOL_H_
