#ifndef PDX_SERVE_VERBS_H_
#define PDX_SERVE_VERBS_H_

// The pdxd protocol verbs as one X-macro table: X(enumerator, wire name,
// tenant_scoped). The Verb enum, the wire-name lookup, the protocol's
// dispatch switch and the per-verb latency histograms
// (pdx_serve_latency_micros_<wire name>, serve/metrics.cc) are all
// generated from it, so a verb added here without a dispatch case is a
// -Wswitch warning, and a verb can never be filed under another's
// histogram. `tenant_scoped` verbs resolve the request's "tenant" field
// (and check the deadline) before their case runs.

#include <cstddef>
#include <optional>
#include <string_view>

#include "base/logging.h"

#define PDX_SERVE_VERBS(X)            \
  X(kPing, "ping", false)             \
  X(kLoad, "load", false)             \
  X(kWrite, "write", true)            \
  X(kRetract, "retract", true)        \
  X(kExists, "exists", true)          \
  X(kCertain, "certain", true)        \
  X(kContains, "contains", true)      \
  X(kStats, "stats", false)           \
  X(kEvict, "evict", false)           \
  X(kShutdown, "shutdown", false)

namespace pdx {
namespace serve {

enum class Verb {
#define PDX_SERVE_VERB_ENUM(id, name, scoped) id,
  PDX_SERVE_VERBS(PDX_SERVE_VERB_ENUM)
#undef PDX_SERVE_VERB_ENUM
};

inline constexpr size_t kVerbCount =
#define PDX_SERVE_VERB_COUNT(id, name, scoped) +1
    0 PDX_SERVE_VERBS(PDX_SERVE_VERB_COUNT);
#undef PDX_SERVE_VERB_COUNT

// The wire name of `verb`.
inline const char* VerbName(Verb verb) {
  switch (verb) {
#define PDX_SERVE_VERB_NAME(id, name, scoped) \
  case Verb::id:                              \
    return name;
    PDX_SERVE_VERBS(PDX_SERVE_VERB_NAME)
#undef PDX_SERVE_VERB_NAME
  }
  PDX_CHECK(false) << "unhandled serve verb " << static_cast<int>(verb);
  return nullptr;
}

// True if the verb acts on the tenant named by the request.
inline bool VerbIsTenantScoped(Verb verb) {
  switch (verb) {
#define PDX_SERVE_VERB_SCOPED(id, name, scoped) \
  case Verb::id:                                \
    return scoped;
    PDX_SERVE_VERBS(PDX_SERVE_VERB_SCOPED)
#undef PDX_SERVE_VERB_SCOPED
  }
  PDX_CHECK(false) << "unhandled serve verb " << static_cast<int>(verb);
  return false;
}

// The verb spelled `name` on the wire, or nullopt for an unknown verb.
inline std::optional<Verb> ParseVerb(std::string_view name) {
#define PDX_SERVE_VERB_PARSE(id, wire, scoped) \
  if (name == wire) return Verb::id;
  PDX_SERVE_VERBS(PDX_SERVE_VERB_PARSE)
#undef PDX_SERVE_VERB_PARSE
  return std::nullopt;
}

}  // namespace serve
}  // namespace pdx

#endif  // PDX_SERVE_VERBS_H_
