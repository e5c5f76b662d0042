#include "serve/protocol.h"

#include <chrono>
#include <cstdio>

#include "base/string_util.h"
#include "serve/metrics.h"

namespace pdx {
namespace serve {

namespace {

std::string HexFingerprint(uint64_t fp) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(fp));
  return buffer;
}

JsonValue ErrorResponse(JsonValue id, const Status& status) {
  JsonValue error = JsonValue::Object();
  error.Set("code", JsonValue::String(StatusCodeToString(status.code())));
  error.Set("message", JsonValue::String(status.message()));
  JsonValue response = JsonValue::Object();
  response.Set("id", std::move(id));
  response.Set("ok", JsonValue::Bool(false));
  response.Set("error", std::move(error));
  return response;
}

JsonValue OkResponse(JsonValue id) {
  JsonValue response = JsonValue::Object();
  response.Set("id", std::move(id));
  response.Set("ok", JsonValue::Bool(true));
  return response;
}

void SetGeneration(JsonValue* response, uint64_t seq, uint64_t fingerprint) {
  response->Set("generation", JsonValue::Int(static_cast<int64_t>(seq)));
  response->Set("fingerprint", JsonValue::String(HexFingerprint(fingerprint)));
}

// The "tenant" field resolved against the registry.
StatusOr<std::shared_ptr<Tenant>> ResolveTenant(const TenantRegistry& registry,
                                                const JsonValue& request) {
  std::string id = request.GetString("tenant");
  if (id.empty()) {
    return InvalidArgumentError("request needs a \"tenant\" field");
  }
  return registry.Find(id);
}

StatusOr<std::string> RequiredString(const JsonValue& request,
                                     std::string_view key) {
  const JsonValue* value = request.Find(key);
  if (value == nullptr || !value->is_string()) {
    return InvalidArgumentError(
        StrCat("request needs a string \"", key, "\" field"));
  }
  return value->as_string();
}

JsonValue StatsEntry(const TenantStats& stats) {
  JsonValue entry = JsonValue::Object();
  entry.Set("tenant", JsonValue::String(stats.id));
  entry.Set("generation",
            JsonValue::Int(static_cast<int64_t>(stats.generation)));
  entry.Set("base_facts",
            JsonValue::Int(static_cast<int64_t>(stats.base_facts)));
  entry.Set("canonical_facts",
            JsonValue::Int(static_cast<int64_t>(stats.canonical_facts)));
  entry.Set("queue_depth",
            JsonValue::Int(static_cast<int64_t>(stats.queue_depth)));
  entry.Set("chase_steps", JsonValue::Int(stats.chase_steps));
  return entry;
}

}  // namespace

std::string ProtocolHandler::HandleLine(std::string_view line,
                                        bool* shutdown_requested) {
  ServeMetrics& metrics = GlobalServeMetrics();
  metrics.requests_total.Inc();
  metrics.inflight_requests.Add(1);
  auto started = std::chrono::steady_clock::now();

  StatusOr<JsonValue> parsed = ParseJson(line);
  JsonValue response;
  // Stays nullopt for unparseable requests and unknown verbs, which
  // observe no latency histogram.
  std::optional<Verb> verb;
  if (!parsed.ok()) {
    response = ErrorResponse(JsonValue::Null(), parsed.status());
  } else if (!parsed->is_object()) {
    response = ErrorResponse(
        JsonValue::Null(),
        InvalidArgumentError("request must be a JSON object"));
  } else {
    verb = ParseVerb(parsed->GetString("verb"));
    response = Dispatch(*parsed, verb, shutdown_requested);
  }

  if (!response.GetBool("ok")) {
    metrics.errors_total.Inc();
    if (const JsonValue* error = response.Find("error");
        error != nullptr &&
        error->GetString("code") ==
            StatusCodeToString(StatusCode::kDeadlineExceeded)) {
      metrics.deadline_exceeded_total.Inc();
    }
  }
  auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::steady_clock::now() - started);
  if (verb.has_value()) metrics.LatencyFor(*verb).Observe(elapsed.count());
  metrics.inflight_requests.Add(-1);
  return response.Dump();
}

JsonValue ProtocolHandler::Dispatch(const JsonValue& request,
                                    std::optional<Verb> verb,
                                    bool* shutdown_requested) {
  JsonValue id =
      request.Find("id") != nullptr ? *request.Find("id") : JsonValue::Null();
  if (!verb.has_value()) {
    std::string name = request.GetString("verb");
    return ErrorResponse(
        id, InvalidArgumentError(
                name.empty() ? std::string("request needs a \"verb\"")
                             : StrCat("unknown verb '", name, "'")));
  }

  int64_t deadline_ms = request.GetInt("deadline_ms", 0);
  if (deadline_ms <= 0) deadline_ms = options_.default_deadline_ms;
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(deadline_ms);

  std::shared_ptr<Tenant> tenant;
  if (VerbIsTenantScoped(*verb)) {
    auto resolved = ResolveTenant(*registry_, request);
    if (!resolved.ok()) return ErrorResponse(id, resolved.status());
    if (std::chrono::steady_clock::now() >= deadline) {
      return ErrorResponse(
          id, DeadlineExceededError("deadline expired on arrival"));
    }
    tenant = *std::move(resolved);
  }

  switch (*verb) {
    case Verb::kPing: {
      JsonValue response = OkResponse(id);
      response.Set("pong", JsonValue::Bool(true));
      return response;
    }

    case Verb::kShutdown: {
      if (shutdown_requested != nullptr) *shutdown_requested = true;
      JsonValue response = OkResponse(id);
      response.Set("draining", JsonValue::Bool(true));
      return response;
    }

    case Verb::kLoad: {
      auto setting_text = RequiredString(request, "setting");
      if (!setting_text.ok()) {
        return ErrorResponse(id, setting_text.status());
      }
      auto loaded = registry_->Load(*setting_text);
      if (!loaded.ok()) return ErrorResponse(id, loaded.status());
      JsonValue response = OkResponse(id);
      response.Set("tenant", JsonValue::String((*loaded)->id()));
      if (std::string facts = request.GetString("facts"); !facts.empty()) {
        auto written = (*loaded)->Write(facts, deadline);
        if (!written.ok()) {
          // The tenant stays loaded; only the initial write failed.
          response = ErrorResponse(id, written.status());
          response.Set("tenant", JsonValue::String((*loaded)->id()));
          return response;
        }
        SetGeneration(&response, written->generation, written->fingerprint);
      } else {
        std::shared_ptr<const Generation> gen = (*loaded)->Snapshot();
        SetGeneration(&response, gen->seq(), gen->Fingerprint());
      }
      return response;
    }

    case Verb::kStats: {
      JsonValue tenants = JsonValue::Array();
      if (std::string one = request.GetString("tenant"); !one.empty()) {
        auto found = registry_->Find(one);
        if (!found.ok()) return ErrorResponse(id, found.status());
        tenants.Add(StatsEntry((*found)->Stats()));
      } else {
        for (const auto& each : registry_->All()) {
          tenants.Add(StatsEntry(each->Stats()));
        }
      }
      JsonValue response = OkResponse(id);
      response.Set("tenants", std::move(tenants));
      return response;
    }

    case Verb::kEvict: {
      auto tenant_id = RequiredString(request, "tenant");
      if (!tenant_id.ok()) return ErrorResponse(id, tenant_id.status());
      if (Status status = registry_->Evict(*tenant_id); !status.ok()) {
        return ErrorResponse(id, status);
      }
      JsonValue response = OkResponse(id);
      response.Set("evicted", JsonValue::String(*tenant_id));
      return response;
    }

    case Verb::kWrite:
    case Verb::kRetract: {
      auto facts = RequiredString(request, "facts");
      if (!facts.ok()) return ErrorResponse(id, facts.status());
      auto outcome = *verb == Verb::kWrite
                         ? tenant->Write(*facts, deadline)
                         : tenant->Retract(*facts, deadline);
      if (!outcome.ok()) return ErrorResponse(id, outcome.status());
      JsonValue response = OkResponse(id);
      SetGeneration(&response, outcome->generation, outcome->fingerprint);
      return response;
    }

    case Verb::kExists: {
      auto outcome = tenant->Exists(request.GetString("solver", "auto"));
      if (!outcome.ok()) return ErrorResponse(id, outcome.status());
      JsonValue response = OkResponse(id);
      response.Set("exists", JsonValue::Bool(outcome->exists));
      response.Set("solver", JsonValue::String(outcome->solver));
      SetGeneration(&response, outcome->generation, outcome->fingerprint);
      return response;
    }

    case Verb::kCertain: {
      auto query = RequiredString(request, "query");
      if (!query.ok()) return ErrorResponse(id, query.status());
      auto outcome =
          tenant->Certain(*query, request.GetString("mode", "exact"));
      if (!outcome.ok()) return ErrorResponse(id, outcome.status());
      JsonValue response = OkResponse(id);
      response.Set("no_solution", JsonValue::Bool(outcome->no_solution));
      if (outcome->is_boolean) {
        response.Set("boolean", JsonValue::Bool(outcome->boolean_value));
      }
      JsonValue answers = JsonValue::Array();
      for (const std::string& answer : outcome->answers) {
        answers.Add(JsonValue::String(answer));
      }
      response.Set("answers", std::move(answers));
      SetGeneration(&response, outcome->generation, outcome->fingerprint);
      return response;
    }

    case Verb::kContains: {
      auto facts = RequiredString(request, "facts");
      if (!facts.ok()) return ErrorResponse(id, facts.status());
      auto outcome = tenant->Contains(*facts);
      if (!outcome.ok()) return ErrorResponse(id, outcome.status());
      JsonValue response = OkResponse(id);
      response.Set("contains", JsonValue::Bool(outcome->contains));
      SetGeneration(&response, outcome->generation, outcome->fingerprint);
      return response;
    }
  }
  PDX_CHECK(false) << "unhandled serve verb " << static_cast<int>(*verb);
  return JsonValue::Null();
}

}  // namespace serve
}  // namespace pdx
