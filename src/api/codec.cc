#include "src/api/codec.h"

#include <cmath>
#include <limits>
#include <utility>

#include "src/common/journal.h"
#include "src/core/strategy.h"

namespace stratrec::wire {

namespace {

using json::Value;

// ---------------------------------------------------------------------------
// Decode helpers: strict member access with field-naming errors.
// ---------------------------------------------------------------------------

Status NotAnObject(const char* what) {
  return Status::InvalidArgument(std::string(what) +
                                 " must be a JSON object");
}

Status MissingField(const char* key) {
  return Status::InvalidArgument(std::string("missing field '") + key + "'");
}

Status WrongType(const char* key, const char* expected) {
  return Status::InvalidArgument(std::string("field '") + key + "' must be " +
                                 expected);
}

Status GetString(const Value& obj, const char* key, std::string* out) {
  const Value* member = obj.Find(key);
  if (member == nullptr) return MissingField(key);
  if (!member->is_string()) return WrongType(key, "a string");
  *out = member->AsString();
  return Status::OK();
}

Status GetDouble(const Value& obj, const char* key, double* out) {
  const Value* member = obj.Find(key);
  if (member == nullptr) return MissingField(key);
  if (!member->is_number()) return WrongType(key, "a number");
  *out = member->AsNumber();
  return Status::OK();
}

Status GetBool(const Value& obj, const char* key, bool* out) {
  const Value* member = obj.Find(key);
  if (member == nullptr) return MissingField(key);
  if (!member->is_bool()) return WrongType(key, "a boolean");
  *out = member->AsBool();
  return Status::OK();
}

/// Largest double-exact integer (2^53): every size_t the encoder can have
/// emitted lies below it, and casting anything above would be UB.
constexpr double kMaxExactInteger = 9007199254740992.0;

Status AsSize(const Value& value, const char* key, size_t* out) {
  if (!value.is_number()) return WrongType(key, "a number");
  const double number = value.AsNumber();
  if (number < 0.0 || number > kMaxExactInteger ||
      number != std::floor(number)) {
    return WrongType(key, "a non-negative integer");
  }
  *out = static_cast<size_t>(number);
  return Status::OK();
}

Status GetSize(const Value& obj, const char* key, size_t* out) {
  const Value* member = obj.Find(key);
  if (member == nullptr) return MissingField(key);
  return AsSize(*member, key, out);
}

Status GetInt(const Value& obj, const char* key, int* out) {
  const Value* member = obj.Find(key);
  if (member == nullptr) return MissingField(key);
  if (!member->is_number()) return WrongType(key, "an integer");
  const double number = member->AsNumber();
  if (number != std::floor(number) ||
      number < static_cast<double>(std::numeric_limits<int>::min()) ||
      number > static_cast<double>(std::numeric_limits<int>::max())) {
    return WrongType(key, "an integer");
  }
  *out = static_cast<int>(number);
  return Status::OK();
}

Status GetSizeVector(const Value& obj, const char* key,
                     std::vector<size_t>* out) {
  const Value* member = obj.Find(key);
  if (member == nullptr) return MissingField(key);
  if (!member->is_array()) return WrongType(key, "an array");
  out->clear();
  out->reserve(member->items().size());
  for (const Value& item : member->items()) {
    size_t index = 0;
    STRATREC_RETURN_NOT_OK(AsSize(item, key, &index));
    out->push_back(index);
  }
  return Status::OK();
}

Value EncodeSizeVector(const std::vector<size_t>& values) {
  Value array = Value::Array();
  for (const size_t v : values) array.Append(v);
  return array;
}

// ---------------------------------------------------------------------------
// Enum wire names. These are part of the format: renaming an enumerator in
// core must not change the wire string without a format-version bump.
// ---------------------------------------------------------------------------

const char* WireName(core::Objective objective) {
  switch (objective) {
    case core::Objective::kThroughput:
      return "throughput";
    case core::Objective::kPayoff:
      return "payoff";
  }
  return "?";
}

Result<core::Objective> ParseObjective(const std::string& name) {
  if (name == "throughput") return core::Objective::kThroughput;
  if (name == "payoff") return core::Objective::kPayoff;
  return Status::InvalidArgument("unknown objective '" + name + "'");
}

const char* WireName(core::AggregationMode mode) {
  switch (mode) {
    case core::AggregationMode::kSum:
      return "sum";
    case core::AggregationMode::kMax:
      return "max";
  }
  return "?";
}

Result<core::AggregationMode> ParseAggregation(const std::string& name) {
  if (name == "sum") return core::AggregationMode::kSum;
  if (name == "max") return core::AggregationMode::kMax;
  return Status::InvalidArgument("unknown aggregation mode '" + name + "'");
}

const char* WireName(core::WorkforcePolicy policy) {
  switch (policy) {
    case core::WorkforcePolicy::kMinimalWorkforce:
      return "minimal-workforce";
    case core::WorkforcePolicy::kPaperMaxOfThree:
      return "paper-max-of-three";
  }
  return "?";
}

Result<core::WorkforcePolicy> ParsePolicy(const std::string& name) {
  if (name == "minimal-workforce") {
    return core::WorkforcePolicy::kMinimalWorkforce;
  }
  if (name == "paper-max-of-three") {
    return core::WorkforcePolicy::kPaperMaxOfThree;
  }
  return Status::InvalidArgument("unknown workforce policy '" + name + "'");
}

const char* WireName(api::AvailabilitySpec::Kind kind) {
  switch (kind) {
    case api::AvailabilitySpec::Kind::kDefault:
      return "default";
    case api::AvailabilitySpec::Kind::kFixed:
      return "fixed";
    case api::AvailabilitySpec::Kind::kPmf:
      return "pmf";
    case api::AvailabilitySpec::Kind::kSamples:
      return "samples";
    case api::AvailabilitySpec::Kind::kNamed:
      return "named";
  }
  return "?";
}

Result<StatusCode> ParseStatusCode(const std::string& name) {
  static constexpr StatusCode kCodes[] = {
      StatusCode::kOk,          StatusCode::kInvalidArgument,
      StatusCode::kNotFound,    StatusCode::kOutOfRange,
      StatusCode::kFailedPrecondition, StatusCode::kInfeasible,
      StatusCode::kCancelled,   StatusCode::kInternal,
      StatusCode::kDeadlineExceeded,
  };
  for (const StatusCode code : kCodes) {
    if (name == StatusCodeName(code)) return code;
  }
  return Status::InvalidArgument("unknown status code '" + name + "'");
}

Result<api::StreamEvent::Kind> ParseStreamEventKind(const std::string& name) {
  using Kind = api::StreamEvent::Kind;
  for (const Kind kind : {Kind::kArrival, Kind::kRevocation, Kind::kCompletion,
                          Kind::kAvailabilityChange}) {
    if (name == api::StreamEventKindName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown stream event kind '" + name + "'");
}

Result<core::AdmissionDecision::Kind> ParseAdmissionKind(
    const std::string& name) {
  using Kind = core::AdmissionDecision::Kind;
  for (const Kind kind : {Kind::kAdmitted, Kind::kQueued, Kind::kRejected}) {
    if (name == api::AdmissionKindName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown admission kind '" + name + "'");
}

// Optional-field helpers for request envelopes: encode only when set,
// decode back to nullopt when absent.
void AddOptional(Value* obj, const char* key,
                 const std::optional<std::string>& value) {
  if (value.has_value()) obj->Add(key, *value);
}

void AddOptional(Value* obj, const char* key,
                 const std::optional<bool>& value) {
  if (value.has_value()) obj->Add(key, *value);
}

void AddOptional(Value* obj, const char* key,
                 const std::optional<size_t>& value) {
  if (value.has_value()) obj->Add(key, *value);
}

template <typename Enum>
void AddOptionalEnum(Value* obj, const char* key,
                     const std::optional<Enum>& value) {
  if (value.has_value()) obj->Add(key, WireName(*value));
}

Status GetOptionalString(const Value& obj, const char* key,
                         std::optional<std::string>* out) {
  const Value* member = obj.Find(key);
  if (member == nullptr) return Status::OK();
  if (!member->is_string()) return WrongType(key, "a string");
  *out = member->AsString();
  return Status::OK();
}

Status GetOptionalBool(const Value& obj, const char* key,
                       std::optional<bool>* out) {
  const Value* member = obj.Find(key);
  if (member == nullptr) return Status::OK();
  if (!member->is_bool()) return WrongType(key, "a boolean");
  *out = member->AsBool();
  return Status::OK();
}

Status GetOptionalSize(const Value& obj, const char* key,
                       std::optional<size_t>* out) {
  const Value* member = obj.Find(key);
  if (member == nullptr) return Status::OK();
  size_t value = 0;
  STRATREC_RETURN_NOT_OK(AsSize(*member, key, &value));
  *out = value;
  return Status::OK();
}

template <typename Enum, typename ParseFn>
Status GetOptionalEnum(const Value& obj, const char* key, ParseFn parse,
                       std::optional<Enum>* out) {
  const Value* member = obj.Find(key);
  if (member == nullptr) return Status::OK();
  if (!member->is_string()) return WrongType(key, "a string");
  auto parsed = parse(member->AsString());
  if (!parsed.ok()) return parsed.status();
  *out = *parsed;
  return Status::OK();
}

}  // namespace

// ---------------------------------------------------------------------------
// Status / ParamVector / DeploymentRequest / AdparResult
// ---------------------------------------------------------------------------

json::Value Encode(const Status& status) {
  Value obj = Value::Object();
  obj.Add("code", StatusCodeName(status.code()));
  if (!status.message().empty()) obj.Add("message", status.message());
  return obj;
}

Status DecodeStatus(const json::Value& value, Status* out) {
  if (!value.is_object()) return NotAnObject("status");
  std::string code_name;
  STRATREC_RETURN_NOT_OK(GetString(value, "code", &code_name));
  auto code = ParseStatusCode(code_name);
  if (!code.ok()) return code.status();
  std::string message;
  if (value.Find("message") != nullptr) {
    STRATREC_RETURN_NOT_OK(GetString(value, "message", &message));
  }
  *out = Status(*code, std::move(message));
  return Status::OK();
}

json::Value Encode(const core::ParamVector& params) {
  Value obj = Value::Object();
  obj.Add("quality", params.quality);
  obj.Add("cost", params.cost);
  obj.Add("latency", params.latency);
  return obj;
}

Result<core::ParamVector> DecodeParamVector(const json::Value& value) {
  if (!value.is_object()) return NotAnObject("param vector");
  core::ParamVector params;
  STRATREC_RETURN_NOT_OK(GetDouble(value, "quality", &params.quality));
  STRATREC_RETURN_NOT_OK(GetDouble(value, "cost", &params.cost));
  STRATREC_RETURN_NOT_OK(GetDouble(value, "latency", &params.latency));
  return params;
}

json::Value Encode(const core::DeploymentRequest& request) {
  Value obj = Value::Object();
  obj.Add("id", request.id);
  obj.Add("thresholds", Encode(request.thresholds));
  obj.Add("k", request.k);
  return obj;
}

Result<core::DeploymentRequest> DecodeDeploymentRequest(
    const json::Value& value) {
  if (!value.is_object()) return NotAnObject("deployment request");
  core::DeploymentRequest request;
  STRATREC_RETURN_NOT_OK(GetString(value, "id", &request.id));
  const Value* thresholds = value.Find("thresholds");
  if (thresholds == nullptr) return MissingField("thresholds");
  auto params = DecodeParamVector(*thresholds);
  if (!params.ok()) return params.status();
  request.thresholds = *params;
  STRATREC_RETURN_NOT_OK(GetInt(value, "k", &request.k));
  return request;
}

json::Value Encode(const core::AdparResult& result) {
  Value obj = Value::Object();
  obj.Add("alternative", Encode(result.alternative));
  obj.Add("strategies", EncodeSizeVector(result.strategies));
  Value params = Value::Array();
  for (const core::ParamVector& p : result.strategy_params) {
    params.Append(Encode(p));
  }
  obj.Add("strategy_params", std::move(params));
  obj.Add("squared_distance", result.squared_distance);
  obj.Add("distance", result.distance);
  return obj;
}

Result<core::AdparResult> DecodeAdparResult(const json::Value& value) {
  if (!value.is_object()) return NotAnObject("adpar result");
  core::AdparResult result;
  const Value* alternative = value.Find("alternative");
  if (alternative == nullptr) return MissingField("alternative");
  auto d_prime = DecodeParamVector(*alternative);
  if (!d_prime.ok()) return d_prime.status();
  result.alternative = *d_prime;
  STRATREC_RETURN_NOT_OK(GetSizeVector(value, "strategies",
                                       &result.strategies));
  const Value* params = value.Find("strategy_params");
  if (params == nullptr) return MissingField("strategy_params");
  if (!params->is_array()) return WrongType("strategy_params", "an array");
  result.strategy_params.reserve(params->items().size());
  for (const Value& entry : params->items()) {
    auto decoded = DecodeParamVector(entry);
    if (!decoded.ok()) return decoded.status();
    result.strategy_params.push_back(*decoded);
  }
  STRATREC_RETURN_NOT_OK(
      GetDouble(value, "squared_distance", &result.squared_distance));
  STRATREC_RETURN_NOT_OK(GetDouble(value, "distance", &result.distance));
  return result;
}

// ---------------------------------------------------------------------------
// Catalog
// ---------------------------------------------------------------------------

json::Value Encode(const core::Catalog& catalog) {
  Value obj = Value::Object();
  Value strategies = Value::Array();
  for (const core::Strategy& strategy : catalog.strategies) {
    Value entry = Value::Object();
    entry.Add("id", strategy.id());
    Value stages = Value::Array();
    for (const core::StageSpec& stage : strategy.stages()) {
      stages.Append(core::StageName(stage));
    }
    entry.Add("stages", std::move(stages));
    strategies.Append(std::move(entry));
  }
  obj.Add("strategies", std::move(strategies));

  Value profiles = Value::Array();
  for (const core::StrategyProfile& profile : catalog.profiles) {
    Value entry = Value::Object();
    const auto add_model = [&entry](const char* key,
                                    const core::LinearModel& model) {
      Value line = Value::Object();
      line.Add("alpha", model.alpha);
      line.Add("beta", model.beta);
      entry.Add(key, std::move(line));
    };
    add_model("quality", profile.quality);
    add_model("cost", profile.cost);
    add_model("latency", profile.latency);
    profiles.Append(std::move(entry));
  }
  obj.Add("profiles", std::move(profiles));
  return obj;
}

namespace {

Status DecodeLinearModel(const Value& obj, const char* key,
                         core::LinearModel* out) {
  const Value* member = obj.Find(key);
  if (member == nullptr) return MissingField(key);
  if (!member->is_object()) return WrongType(key, "an object");
  STRATREC_RETURN_NOT_OK(GetDouble(*member, "alpha", &out->alpha));
  STRATREC_RETURN_NOT_OK(GetDouble(*member, "beta", &out->beta));
  return Status::OK();
}

}  // namespace

Result<core::Catalog> DecodeCatalog(const json::Value& value) {
  if (!value.is_object()) return NotAnObject("catalog");
  core::Catalog catalog;

  const Value* strategies = value.Find("strategies");
  if (strategies == nullptr) return MissingField("strategies");
  if (!strategies->is_array()) return WrongType("strategies", "an array");
  catalog.strategies.reserve(strategies->items().size());
  for (const Value& entry : strategies->items()) {
    if (!entry.is_object()) return NotAnObject("catalog strategy");
    std::string id;
    STRATREC_RETURN_NOT_OK(GetString(entry, "id", &id));
    const Value* stages = entry.Find("stages");
    if (stages == nullptr) return MissingField("stages");
    if (!stages->is_array()) return WrongType("stages", "an array");
    std::vector<core::StageSpec> specs;
    specs.reserve(stages->items().size());
    for (const Value& stage : stages->items()) {
      if (!stage.is_string()) return WrongType("stages", "stage-name strings");
      auto spec = core::ParseStageName(stage.AsString());
      if (!spec.ok()) return spec.status();
      specs.push_back(*spec);
    }
    catalog.strategies.emplace_back(std::move(id), std::move(specs));
  }

  const Value* profiles = value.Find("profiles");
  if (profiles == nullptr) return MissingField("profiles");
  if (!profiles->is_array()) return WrongType("profiles", "an array");
  catalog.profiles.reserve(profiles->items().size());
  for (const Value& entry : profiles->items()) {
    if (!entry.is_object()) return NotAnObject("catalog profile");
    core::StrategyProfile profile;
    STRATREC_RETURN_NOT_OK(DecodeLinearModel(entry, "quality",
                                             &profile.quality));
    STRATREC_RETURN_NOT_OK(DecodeLinearModel(entry, "cost", &profile.cost));
    STRATREC_RETURN_NOT_OK(DecodeLinearModel(entry, "latency",
                                             &profile.latency));
    catalog.profiles.push_back(profile);
  }
  return catalog;
}

// ---------------------------------------------------------------------------
// AvailabilitySpec
// ---------------------------------------------------------------------------

json::Value Encode(const api::AvailabilitySpec& spec) {
  Value obj = Value::Object();
  obj.Add("kind", WireName(spec.kind));
  switch (spec.kind) {
    case api::AvailabilitySpec::Kind::kDefault:
      break;
    case api::AvailabilitySpec::Kind::kFixed:
      obj.Add("value", spec.value);
      break;
    case api::AvailabilitySpec::Kind::kPmf: {
      Value atoms = Value::Array();
      for (const stats::PmfAtom& atom : spec.atoms) {
        Value entry = Value::Object();
        entry.Add("value", atom.value);
        entry.Add("probability", atom.probability);
        atoms.Append(std::move(entry));
      }
      obj.Add("atoms", std::move(atoms));
      break;
    }
    case api::AvailabilitySpec::Kind::kSamples: {
      Value samples = Value::Array();
      for (const double sample : spec.samples) samples.Append(sample);
      obj.Add("samples", std::move(samples));
      break;
    }
    case api::AvailabilitySpec::Kind::kNamed:
      obj.Add("name", spec.name);
      break;
  }
  return obj;
}

Result<api::AvailabilitySpec> DecodeAvailabilitySpec(const json::Value& value) {
  if (!value.is_object()) return NotAnObject("availability spec");
  std::string kind;
  STRATREC_RETURN_NOT_OK(GetString(value, "kind", &kind));
  api::AvailabilitySpec spec;
  if (kind == "default") {
    spec.kind = api::AvailabilitySpec::Kind::kDefault;
  } else if (kind == "fixed") {
    spec.kind = api::AvailabilitySpec::Kind::kFixed;
    STRATREC_RETURN_NOT_OK(GetDouble(value, "value", &spec.value));
  } else if (kind == "pmf") {
    spec.kind = api::AvailabilitySpec::Kind::kPmf;
    const Value* atoms = value.Find("atoms");
    if (atoms == nullptr) return MissingField("atoms");
    if (!atoms->is_array()) return WrongType("atoms", "an array");
    spec.atoms.reserve(atoms->items().size());
    for (const Value& entry : atoms->items()) {
      if (!entry.is_object()) return NotAnObject("pmf atom");
      stats::PmfAtom atom;
      STRATREC_RETURN_NOT_OK(GetDouble(entry, "value", &atom.value));
      STRATREC_RETURN_NOT_OK(GetDouble(entry, "probability",
                                       &atom.probability));
      spec.atoms.push_back(atom);
    }
  } else if (kind == "samples") {
    spec.kind = api::AvailabilitySpec::Kind::kSamples;
    const Value* samples = value.Find("samples");
    if (samples == nullptr) return MissingField("samples");
    if (!samples->is_array()) return WrongType("samples", "an array");
    spec.samples.reserve(samples->items().size());
    for (const Value& entry : samples->items()) {
      if (!entry.is_number()) return WrongType("samples", "numbers");
      spec.samples.push_back(entry.AsNumber());
    }
  } else if (kind == "named") {
    spec.kind = api::AvailabilitySpec::Kind::kNamed;
    STRATREC_RETURN_NOT_OK(GetString(value, "name", &spec.name));
  } else {
    return Status::InvalidArgument("unknown availability kind '" + kind + "'");
  }
  return spec;
}

// ---------------------------------------------------------------------------
// Batch envelopes
// ---------------------------------------------------------------------------

json::Value Encode(const api::BatchRequest& request) {
  Value obj = Value::Object();
  if (!request.request_id.empty()) obj.Add("request_id", request.request_id);
  Value requests = Value::Array();
  for (const core::DeploymentRequest& r : request.requests) {
    requests.Append(Encode(r));
  }
  obj.Add("requests", std::move(requests));
  obj.Add("availability", Encode(request.availability));
  AddOptional(&obj, "algorithm", request.algorithm);
  AddOptionalEnum(&obj, "objective", request.objective);
  AddOptionalEnum(&obj, "aggregation", request.aggregation);
  AddOptionalEnum(&obj, "policy", request.policy);
  AddOptional(&obj, "recommend_alternatives", request.recommend_alternatives);
  AddOptional(&obj, "adpar_solver", request.adpar_solver);
  // 0 (no deadline) is omitted so pre-v7 request encodings are reproduced
  // byte for byte.
  if (request.deadline_ms > 0.0) obj.Add("deadline_ms", request.deadline_ms);
  return obj;
}

Result<api::BatchRequest> DecodeBatchRequest(const json::Value& value) {
  if (!value.is_object()) return NotAnObject("batch request");
  api::BatchRequest request;
  if (value.Find("request_id") != nullptr) {
    STRATREC_RETURN_NOT_OK(GetString(value, "request_id",
                                     &request.request_id));
  }
  const Value* requests = value.Find("requests");
  if (requests == nullptr) return MissingField("requests");
  if (!requests->is_array()) return WrongType("requests", "an array");
  request.requests.reserve(requests->items().size());
  for (const Value& entry : requests->items()) {
    auto decoded = DecodeDeploymentRequest(entry);
    if (!decoded.ok()) return decoded.status();
    request.requests.push_back(std::move(*decoded));
  }
  const Value* availability = value.Find("availability");
  if (availability == nullptr) return MissingField("availability");
  auto spec = DecodeAvailabilitySpec(*availability);
  if (!spec.ok()) return spec.status();
  request.availability = std::move(*spec);
  STRATREC_RETURN_NOT_OK(GetOptionalString(value, "algorithm",
                                           &request.algorithm));
  STRATREC_RETURN_NOT_OK(GetOptionalEnum<core::Objective>(
      value, "objective", ParseObjective, &request.objective));
  STRATREC_RETURN_NOT_OK(GetOptionalEnum<core::AggregationMode>(
      value, "aggregation", ParseAggregation, &request.aggregation));
  STRATREC_RETURN_NOT_OK(GetOptionalEnum<core::WorkforcePolicy>(
      value, "policy", ParsePolicy, &request.policy));
  STRATREC_RETURN_NOT_OK(GetOptionalBool(value, "recommend_alternatives",
                                         &request.recommend_alternatives));
  STRATREC_RETURN_NOT_OK(GetOptionalString(value, "adpar_solver",
                                           &request.adpar_solver));
  if (value.Find("deadline_ms") != nullptr) {
    STRATREC_RETURN_NOT_OK(GetDouble(value, "deadline_ms",
                                     &request.deadline_ms));
  }
  return request;
}

namespace {

Value EncodeRequestOutcome(const core::RequestOutcome& outcome) {
  Value obj = Value::Object();
  obj.Add("request_index", outcome.request_index);
  obj.Add("satisfied", outcome.satisfied);
  obj.Add("eligible", outcome.eligible);
  obj.Add("workforce", outcome.workforce);
  obj.Add("objective_value", outcome.objective_value);
  obj.Add("strategies", EncodeSizeVector(outcome.strategies));
  return obj;
}

Result<core::RequestOutcome> DecodeRequestOutcome(const Value& value) {
  if (!value.is_object()) return NotAnObject("request outcome");
  core::RequestOutcome outcome;
  STRATREC_RETURN_NOT_OK(GetSize(value, "request_index",
                                 &outcome.request_index));
  STRATREC_RETURN_NOT_OK(GetBool(value, "satisfied", &outcome.satisfied));
  STRATREC_RETURN_NOT_OK(GetBool(value, "eligible", &outcome.eligible));
  STRATREC_RETURN_NOT_OK(GetDouble(value, "workforce", &outcome.workforce));
  STRATREC_RETURN_NOT_OK(GetDouble(value, "objective_value",
                                   &outcome.objective_value));
  STRATREC_RETURN_NOT_OK(GetSizeVector(value, "strategies",
                                       &outcome.strategies));
  return outcome;
}

Value EncodeBatchResult(const core::BatchResult& batch) {
  Value obj = Value::Object();
  Value outcomes = Value::Array();
  for (const core::RequestOutcome& outcome : batch.outcomes) {
    outcomes.Append(EncodeRequestOutcome(outcome));
  }
  obj.Add("outcomes", std::move(outcomes));
  obj.Add("total_objective", batch.total_objective);
  obj.Add("workforce_used", batch.workforce_used);
  obj.Add("satisfied", EncodeSizeVector(batch.satisfied));
  obj.Add("unsatisfied", EncodeSizeVector(batch.unsatisfied));
  return obj;
}

Result<core::BatchResult> DecodeBatchResult(const Value& value) {
  if (!value.is_object()) return NotAnObject("batch result");
  core::BatchResult batch;
  const Value* outcomes = value.Find("outcomes");
  if (outcomes == nullptr) return MissingField("outcomes");
  if (!outcomes->is_array()) return WrongType("outcomes", "an array");
  batch.outcomes.reserve(outcomes->items().size());
  for (const Value& entry : outcomes->items()) {
    auto outcome = DecodeRequestOutcome(entry);
    if (!outcome.ok()) return outcome.status();
    batch.outcomes.push_back(std::move(*outcome));
  }
  STRATREC_RETURN_NOT_OK(GetDouble(value, "total_objective",
                                   &batch.total_objective));
  STRATREC_RETURN_NOT_OK(GetDouble(value, "workforce_used",
                                   &batch.workforce_used));
  STRATREC_RETURN_NOT_OK(GetSizeVector(value, "satisfied", &batch.satisfied));
  STRATREC_RETURN_NOT_OK(GetSizeVector(value, "unsatisfied",
                                       &batch.unsatisfied));
  return batch;
}

Value EncodeStratRecReport(const core::StratRecReport& report) {
  Value obj = Value::Object();
  Value aggregator = Value::Object();
  aggregator.Add("availability", report.aggregator.availability);
  aggregator.Add("batch", EncodeBatchResult(report.aggregator.batch));
  obj.Add("aggregator", std::move(aggregator));

  Value alternatives = Value::Array();
  for (const core::AlternativeRecommendation& alt : report.alternatives) {
    Value entry = Value::Object();
    entry.Add("request_index", alt.request_index);
    entry.Add("result", Encode(alt.result));
    alternatives.Append(std::move(entry));
  }
  obj.Add("alternatives", std::move(alternatives));
  obj.Add("adpar_failures", EncodeSizeVector(report.adpar_failures));
  return obj;
}

Result<core::StratRecReport> DecodeStratRecReport(const Value& value) {
  if (!value.is_object()) return NotAnObject("stratrec report");
  core::StratRecReport report;

  const Value* aggregator = value.Find("aggregator");
  if (aggregator == nullptr) return MissingField("aggregator");
  if (!aggregator->is_object()) return WrongType("aggregator", "an object");
  STRATREC_RETURN_NOT_OK(GetDouble(*aggregator, "availability",
                                   &report.aggregator.availability));
  const Value* batch = aggregator->Find("batch");
  if (batch == nullptr) return MissingField("batch");
  auto batch_result = DecodeBatchResult(*batch);
  if (!batch_result.ok()) return batch_result.status();
  report.aggregator.batch = std::move(*batch_result);

  const Value* alternatives = value.Find("alternatives");
  if (alternatives == nullptr) return MissingField("alternatives");
  if (!alternatives->is_array()) return WrongType("alternatives", "an array");
  report.alternatives.reserve(alternatives->items().size());
  for (const Value& entry : alternatives->items()) {
    if (!entry.is_object()) return NotAnObject("alternative recommendation");
    core::AlternativeRecommendation alt;
    STRATREC_RETURN_NOT_OK(GetSize(entry, "request_index",
                                   &alt.request_index));
    const Value* result = entry.Find("result");
    if (result == nullptr) return MissingField("result");
    auto adpar = DecodeAdparResult(*result);
    if (!adpar.ok()) return adpar.status();
    alt.result = std::move(*adpar);
    report.alternatives.push_back(std::move(alt));
  }
  STRATREC_RETURN_NOT_OK(GetSizeVector(value, "adpar_failures",
                                       &report.adpar_failures));
  return report;
}

}  // namespace

json::Value Encode(const api::BatchReport& report) {
  Value obj = Value::Object();
  obj.Add("request_id", report.request_id);
  obj.Add("algorithm", report.algorithm);
  obj.Add("availability", report.availability);
  obj.Add("result", EncodeStratRecReport(report.result));
  return obj;
}

Result<api::BatchReport> DecodeBatchReport(const json::Value& value) {
  if (!value.is_object()) return NotAnObject("batch report");
  api::BatchReport report;
  STRATREC_RETURN_NOT_OK(GetString(value, "request_id", &report.request_id));
  STRATREC_RETURN_NOT_OK(GetString(value, "algorithm", &report.algorithm));
  STRATREC_RETURN_NOT_OK(GetDouble(value, "availability",
                                   &report.availability));
  const Value* result = value.Find("result");
  if (result == nullptr) return MissingField("result");
  auto decoded = DecodeStratRecReport(*result);
  if (!decoded.ok()) return decoded.status();
  report.result = std::move(*decoded);
  return report;
}

// ---------------------------------------------------------------------------
// Sweep envelopes
// ---------------------------------------------------------------------------

json::Value Encode(const api::SweepRequest& request) {
  Value obj = Value::Object();
  if (!request.request_id.empty()) obj.Add("request_id", request.request_id);
  Value targets = Value::Array();
  for (const core::DeploymentRequest& target : request.targets) {
    targets.Append(Encode(target));
  }
  obj.Add("targets", std::move(targets));
  Value solvers = Value::Array();
  for (const std::string& solver : request.solvers) solvers.Append(solver);
  obj.Add("solvers", std::move(solvers));
  obj.Add("availability", Encode(request.availability));
  if (request.deadline_ms > 0.0) obj.Add("deadline_ms", request.deadline_ms);
  return obj;
}

Result<api::SweepRequest> DecodeSweepRequest(const json::Value& value) {
  if (!value.is_object()) return NotAnObject("sweep request");
  api::SweepRequest request;
  if (value.Find("request_id") != nullptr) {
    STRATREC_RETURN_NOT_OK(GetString(value, "request_id",
                                     &request.request_id));
  }
  const Value* targets = value.Find("targets");
  if (targets == nullptr) return MissingField("targets");
  if (!targets->is_array()) return WrongType("targets", "an array");
  request.targets.reserve(targets->items().size());
  for (const Value& entry : targets->items()) {
    auto decoded = DecodeDeploymentRequest(entry);
    if (!decoded.ok()) return decoded.status();
    request.targets.push_back(std::move(*decoded));
  }
  const Value* solvers = value.Find("solvers");
  if (solvers == nullptr) return MissingField("solvers");
  if (!solvers->is_array()) return WrongType("solvers", "an array");
  request.solvers.reserve(solvers->items().size());
  for (const Value& entry : solvers->items()) {
    if (!entry.is_string()) return WrongType("solvers", "strings");
    request.solvers.push_back(entry.AsString());
  }
  const Value* availability = value.Find("availability");
  if (availability == nullptr) return MissingField("availability");
  auto spec = DecodeAvailabilitySpec(*availability);
  if (!spec.ok()) return spec.status();
  request.availability = std::move(*spec);
  if (value.Find("deadline_ms") != nullptr) {
    STRATREC_RETURN_NOT_OK(GetDouble(value, "deadline_ms",
                                     &request.deadline_ms));
  }
  return request;
}

json::Value Encode(const api::SweepReport& report) {
  Value obj = Value::Object();
  obj.Add("request_id", report.request_id);
  obj.Add("availability", report.availability);
  Value outcomes = Value::Array();
  for (const api::SweepOutcome& outcome : report.outcomes) {
    Value entry = Value::Object();
    entry.Add("target_id", outcome.target_id);
    entry.Add("solver", outcome.solver);
    entry.Add("status", Encode(outcome.status));
    if (outcome.status.ok()) entry.Add("result", Encode(outcome.result));
    outcomes.Append(std::move(entry));
  }
  obj.Add("outcomes", std::move(outcomes));
  return obj;
}

Result<api::SweepReport> DecodeSweepReport(const json::Value& value) {
  if (!value.is_object()) return NotAnObject("sweep report");
  api::SweepReport report;
  STRATREC_RETURN_NOT_OK(GetString(value, "request_id", &report.request_id));
  STRATREC_RETURN_NOT_OK(GetDouble(value, "availability",
                                   &report.availability));
  const Value* outcomes = value.Find("outcomes");
  if (outcomes == nullptr) return MissingField("outcomes");
  if (!outcomes->is_array()) return WrongType("outcomes", "an array");
  report.outcomes.reserve(outcomes->items().size());
  for (const Value& entry : outcomes->items()) {
    if (!entry.is_object()) return NotAnObject("sweep outcome");
    api::SweepOutcome outcome;
    STRATREC_RETURN_NOT_OK(GetString(entry, "target_id", &outcome.target_id));
    STRATREC_RETURN_NOT_OK(GetString(entry, "solver", &outcome.solver));
    const Value* status = entry.Find("status");
    if (status == nullptr) return MissingField("status");
    STRATREC_RETURN_NOT_OK(DecodeStatus(*status, &outcome.status));
    if (outcome.status.ok()) {
      const Value* result = entry.Find("result");
      if (result == nullptr) return MissingField("result");
      auto adpar = DecodeAdparResult(*result);
      if (!adpar.ok()) return adpar.status();
      outcome.result = std::move(*adpar);
    }
    report.outcomes.push_back(std::move(outcome));
  }
  return report;
}

// ---------------------------------------------------------------------------
// Stream envelopes
// ---------------------------------------------------------------------------

json::Value Encode(const api::StreamOptions& options) {
  Value obj = Value::Object();
  obj.Add("availability", Encode(options.availability));
  AddOptional(&obj, "max_pending", options.max_pending);
  AddOptional(&obj, "readmit_on_release", options.readmit_on_release);
  AddOptionalEnum(&obj, "objective", options.objective);
  AddOptionalEnum(&obj, "aggregation", options.aggregation);
  AddOptionalEnum(&obj, "policy", options.policy);
  AddOptional(&obj, "recommend_alternatives", options.recommend_alternatives);
  if (options.deadline_ms > 0.0) obj.Add("deadline_ms", options.deadline_ms);
  if (!options.session_id.empty()) obj.Add("session_id", options.session_id);
  return obj;
}

Result<api::StreamOptions> DecodeStreamOptions(const json::Value& value) {
  if (!value.is_object()) return NotAnObject("stream options");
  api::StreamOptions options;
  const Value* availability = value.Find("availability");
  if (availability == nullptr) return MissingField("availability");
  auto spec = DecodeAvailabilitySpec(*availability);
  if (!spec.ok()) return spec.status();
  options.availability = std::move(*spec);
  STRATREC_RETURN_NOT_OK(GetOptionalSize(value, "max_pending",
                                         &options.max_pending));
  STRATREC_RETURN_NOT_OK(GetOptionalBool(value, "readmit_on_release",
                                         &options.readmit_on_release));
  STRATREC_RETURN_NOT_OK(GetOptionalEnum<core::Objective>(
      value, "objective", ParseObjective, &options.objective));
  STRATREC_RETURN_NOT_OK(GetOptionalEnum<core::AggregationMode>(
      value, "aggregation", ParseAggregation, &options.aggregation));
  STRATREC_RETURN_NOT_OK(GetOptionalEnum<core::WorkforcePolicy>(
      value, "policy", ParsePolicy, &options.policy));
  STRATREC_RETURN_NOT_OK(GetOptionalBool(value, "recommend_alternatives",
                                         &options.recommend_alternatives));
  if (value.Find("deadline_ms") != nullptr) {
    STRATREC_RETURN_NOT_OK(GetDouble(value, "deadline_ms",
                                     &options.deadline_ms));
  }
  if (value.Find("session_id") != nullptr) {
    STRATREC_RETURN_NOT_OK(GetString(value, "session_id",
                                     &options.session_id));
  }
  return options;
}

json::Value Encode(const api::StreamEvent& event) {
  Value obj = Value::Object();
  obj.Add("kind", api::StreamEventKindName(event.kind));
  switch (event.kind) {
    case api::StreamEvent::Kind::kArrival:
      obj.Add("request", Encode(event.request));
      break;
    case api::StreamEvent::Kind::kRevocation:
    case api::StreamEvent::Kind::kCompletion:
      obj.Add("request_id", event.request_id);
      break;
    case api::StreamEvent::Kind::kAvailabilityChange:
      obj.Add("availability", Encode(event.availability));
      break;
  }
  return obj;
}

Result<api::StreamEvent> DecodeStreamEvent(const json::Value& value) {
  if (!value.is_object()) return NotAnObject("stream event");
  std::string kind_name;
  STRATREC_RETURN_NOT_OK(GetString(value, "kind", &kind_name));
  auto kind = ParseStreamEventKind(kind_name);
  if (!kind.ok()) return kind.status();
  switch (*kind) {
    case api::StreamEvent::Kind::kArrival: {
      const Value* request = value.Find("request");
      if (request == nullptr) return MissingField("request");
      auto decoded = DecodeDeploymentRequest(*request);
      if (!decoded.ok()) return decoded.status();
      return api::StreamEvent::Arrival(std::move(*decoded));
    }
    case api::StreamEvent::Kind::kRevocation:
    case api::StreamEvent::Kind::kCompletion: {
      std::string request_id;
      STRATREC_RETURN_NOT_OK(GetString(value, "request_id", &request_id));
      return *kind == api::StreamEvent::Kind::kRevocation
                 ? api::StreamEvent::Revocation(std::move(request_id))
                 : api::StreamEvent::Completion(std::move(request_id));
    }
    case api::StreamEvent::Kind::kAvailabilityChange: {
      const Value* availability = value.Find("availability");
      if (availability == nullptr) return MissingField("availability");
      auto spec = DecodeAvailabilitySpec(*availability);
      if (!spec.ok()) return spec.status();
      return api::StreamEvent::AvailabilityChange(std::move(*spec));
    }
  }
  return Status::Internal("unreachable stream event kind");
}

json::Value Encode(const api::StreamUpdate& update) {
  Value obj = Value::Object();
  obj.Add("session_id", update.session_id);
  obj.Add("kind", api::StreamEventKindName(update.kind));
  obj.Add("request_id", update.request_id);
  Value decision = Value::Object();
  decision.Add("kind", api::AdmissionKindName(update.decision.kind));
  decision.Add("strategies", EncodeSizeVector(update.decision.strategies));
  decision.Add("workforce", update.decision.workforce);
  obj.Add("decision", std::move(decision));
  if (update.has_alternative) {
    obj.Add("alternative", Encode(update.alternative));
  }
  obj.Add("availability", update.availability);
  obj.Add("used_workforce", update.used_workforce);
  obj.Add("active", update.active);
  obj.Add("pending", update.pending);
  return obj;
}

Result<api::StreamUpdate> DecodeStreamUpdate(const json::Value& value) {
  if (!value.is_object()) return NotAnObject("stream update");
  api::StreamUpdate update;
  STRATREC_RETURN_NOT_OK(GetString(value, "session_id", &update.session_id));
  std::string kind_name;
  STRATREC_RETURN_NOT_OK(GetString(value, "kind", &kind_name));
  auto kind = ParseStreamEventKind(kind_name);
  if (!kind.ok()) return kind.status();
  update.kind = *kind;
  STRATREC_RETURN_NOT_OK(GetString(value, "request_id", &update.request_id));
  const Value* decision = value.Find("decision");
  if (decision == nullptr) return MissingField("decision");
  if (!decision->is_object()) return WrongType("decision", "an object");
  STRATREC_RETURN_NOT_OK(GetString(*decision, "kind", &kind_name));
  auto admission = ParseAdmissionKind(kind_name);
  if (!admission.ok()) return admission.status();
  update.decision.kind = *admission;
  STRATREC_RETURN_NOT_OK(GetSizeVector(*decision, "strategies",
                                       &update.decision.strategies));
  STRATREC_RETURN_NOT_OK(GetDouble(*decision, "workforce",
                                   &update.decision.workforce));
  const Value* alternative = value.Find("alternative");
  if (alternative != nullptr) {
    auto decoded = DecodeAdparResult(*alternative);
    if (!decoded.ok()) return decoded.status();
    update.has_alternative = true;
    update.alternative = std::move(*decoded);
  }
  STRATREC_RETURN_NOT_OK(GetDouble(value, "availability",
                                   &update.availability));
  STRATREC_RETURN_NOT_OK(GetDouble(value, "used_workforce",
                                   &update.used_workforce));
  STRATREC_RETURN_NOT_OK(GetSize(value, "active", &update.active));
  STRATREC_RETURN_NOT_OK(GetSize(value, "pending", &update.pending));
  return update;
}

// ---------------------------------------------------------------------------
// ServiceConfig
// ---------------------------------------------------------------------------

json::Value Encode(const api::ServiceConfig& config) {
  Value obj = Value::Object();

  Value batch = Value::Object();
  batch.Add("algorithm", config.batch.algorithm);
  batch.Add("objective", WireName(config.batch.objective));
  batch.Add("aggregation", WireName(config.batch.aggregation));
  batch.Add("policy", WireName(config.batch.policy));
  batch.Add("recommend_alternatives", config.batch.recommend_alternatives);
  batch.Add("adpar_solver", config.batch.adpar_solver);
  obj.Add("batch", std::move(batch));

  Value stream = Value::Object();
  stream.Add("max_pending", config.stream.max_pending);
  stream.Add("readmit_on_release", config.stream.readmit_on_release);
  stream.Add("recommend_alternatives", config.stream.recommend_alternatives);
  obj.Add("stream", std::move(stream));

  Value execution = Value::Object();
  execution.Add("worker_threads", config.execution.worker_threads);
  execution.Add("parallel_grain", config.execution.parallel_grain);
  obj.Add("execution", std::move(execution));

  Value cache = Value::Object();
  cache.Add("snapshot_capacity", config.cache.snapshot_capacity);
  cache.Add("shards", config.cache.shards);
  cache.Add("availability_quantum", config.cache.availability_quantum);
  obj.Add("cache", std::move(cache));

  Value journal = Value::Object();
  journal.Add("path", config.journal.path);
  journal.Add("record_cancelled", config.journal.record_cancelled);
  journal.Add("flush_every_record", config.journal.flush_every_record);
  journal.Add("max_segment_bytes", config.journal.max_segment_bytes);
  journal.Add("compact_after_segments", config.journal.compact_after_segments);
  journal.Add("retain_segments", config.journal.retain_segments);
  obj.Add("journal", std::move(journal));

  obj.Add("availability", Encode(config.availability));
  return obj;
}

Result<api::ServiceConfig> DecodeServiceConfig(const json::Value& value) {
  if (!value.is_object()) return NotAnObject("service config");
  api::ServiceConfig config;

  const Value* batch = value.Find("batch");
  if (batch == nullptr) return MissingField("batch");
  if (!batch->is_object()) return WrongType("batch", "an object");
  STRATREC_RETURN_NOT_OK(GetString(*batch, "algorithm",
                                   &config.batch.algorithm));
  std::string name;
  STRATREC_RETURN_NOT_OK(GetString(*batch, "objective", &name));
  auto objective = ParseObjective(name);
  if (!objective.ok()) return objective.status();
  config.batch.objective = *objective;
  STRATREC_RETURN_NOT_OK(GetString(*batch, "aggregation", &name));
  auto aggregation = ParseAggregation(name);
  if (!aggregation.ok()) return aggregation.status();
  config.batch.aggregation = *aggregation;
  STRATREC_RETURN_NOT_OK(GetString(*batch, "policy", &name));
  auto policy = ParsePolicy(name);
  if (!policy.ok()) return policy.status();
  config.batch.policy = *policy;
  STRATREC_RETURN_NOT_OK(GetBool(*batch, "recommend_alternatives",
                                 &config.batch.recommend_alternatives));
  STRATREC_RETURN_NOT_OK(GetString(*batch, "adpar_solver",
                                   &config.batch.adpar_solver));

  const Value* stream = value.Find("stream");
  if (stream == nullptr) return MissingField("stream");
  if (!stream->is_object()) return WrongType("stream", "an object");
  STRATREC_RETURN_NOT_OK(GetSize(*stream, "max_pending",
                                 &config.stream.max_pending));
  STRATREC_RETURN_NOT_OK(GetBool(*stream, "readmit_on_release",
                                 &config.stream.readmit_on_release));
  STRATREC_RETURN_NOT_OK(GetBool(*stream, "recommend_alternatives",
                                 &config.stream.recommend_alternatives));

  const Value* execution = value.Find("execution");
  if (execution == nullptr) return MissingField("execution");
  if (!execution->is_object()) return WrongType("execution", "an object");
  STRATREC_RETURN_NOT_OK(GetSize(*execution, "worker_threads",
                                 &config.execution.worker_threads));
  STRATREC_RETURN_NOT_OK(GetSize(*execution, "parallel_grain",
                                 &config.execution.parallel_grain));

  const Value* cache = value.Find("cache");
  if (cache == nullptr) return MissingField("cache");
  if (!cache->is_object()) return WrongType("cache", "an object");
  STRATREC_RETURN_NOT_OK(GetSize(*cache, "snapshot_capacity",
                                 &config.cache.snapshot_capacity));
  STRATREC_RETURN_NOT_OK(GetSize(*cache, "shards", &config.cache.shards));
  STRATREC_RETURN_NOT_OK(GetDouble(*cache, "availability_quantum",
                                   &config.cache.availability_quantum));

  const Value* journal = value.Find("journal");
  if (journal == nullptr) return MissingField("journal");
  if (!journal->is_object()) return WrongType("journal", "an object");
  STRATREC_RETURN_NOT_OK(GetString(*journal, "path", &config.journal.path));
  STRATREC_RETURN_NOT_OK(GetBool(*journal, "record_cancelled",
                                 &config.journal.record_cancelled));
  STRATREC_RETURN_NOT_OK(GetBool(*journal, "flush_every_record",
                                 &config.journal.flush_every_record));
  STRATREC_RETURN_NOT_OK(GetSize(*journal, "max_segment_bytes",
                                 &config.journal.max_segment_bytes));
  STRATREC_RETURN_NOT_OK(GetSize(*journal, "compact_after_segments",
                                 &config.journal.compact_after_segments));
  STRATREC_RETURN_NOT_OK(GetSize(*journal, "retain_segments",
                                 &config.journal.retain_segments));

  const Value* availability = value.Find("availability");
  if (availability == nullptr) return MissingField("availability");
  auto spec = DecodeAvailabilitySpec(*availability);
  if (!spec.ok()) return spec.status();
  config.availability = std::move(*spec);
  return config;
}

// ---------------------------------------------------------------------------
// ServiceStats
// ---------------------------------------------------------------------------

json::Value Encode(const api::ServiceStats& stats) {
  Value obj = Value::Object();
  obj.Add("batches", stats.batches);
  obj.Add("sweeps", stats.sweeps);
  obj.Add("streams_opened", stats.streams_opened);
  obj.Add("stream_events", stats.stream_events);
  obj.Add("stream_reschedules", stats.stream_reschedules);
  obj.Add("snapshot_delta_updates", stats.snapshot_delta_updates);
  obj.Add("snapshot_rebuilds", stats.snapshot_rebuilds);
  obj.Add("requests_processed", stats.requests_processed);
  obj.Add("cancelled", stats.cancelled);
  obj.Add("queue_depth", stats.queue_depth);
  obj.Add("active_workers", stats.active_workers);
  obj.Add("steals", stats.steals);
  obj.Add("local_hits", stats.local_hits);
  obj.Add("cache_hits", stats.cache_hits);
  obj.Add("cache_misses", stats.cache_misses);
  obj.Add("index_build_nanos", stats.index_build_nanos);
  obj.Add("rejected_requests", stats.rejected_requests);
  obj.Add("retry_after_hints", stats.retry_after_hints);
  obj.Add("deadline_exceeded", stats.deadline_exceeded);
  obj.Add("retries", stats.retries);
  obj.Add("failovers", stats.failovers);
  obj.Add("hedges_won", stats.hedges_won);
  obj.Add("kernel_dispatch", stats.kernel_dispatch);
  return obj;
}

Result<api::ServiceStats> DecodeServiceStats(const json::Value& value) {
  if (!value.is_object()) return NotAnObject("service stats");
  api::ServiceStats stats;
  STRATREC_RETURN_NOT_OK(GetSize(value, "batches", &stats.batches));
  STRATREC_RETURN_NOT_OK(GetSize(value, "sweeps", &stats.sweeps));
  STRATREC_RETURN_NOT_OK(
      GetSize(value, "streams_opened", &stats.streams_opened));
  STRATREC_RETURN_NOT_OK(
      GetSize(value, "stream_events", &stats.stream_events));
  STRATREC_RETURN_NOT_OK(
      GetSize(value, "stream_reschedules", &stats.stream_reschedules));
  STRATREC_RETURN_NOT_OK(
      GetSize(value, "snapshot_delta_updates", &stats.snapshot_delta_updates));
  STRATREC_RETURN_NOT_OK(
      GetSize(value, "snapshot_rebuilds", &stats.snapshot_rebuilds));
  STRATREC_RETURN_NOT_OK(
      GetSize(value, "requests_processed", &stats.requests_processed));
  STRATREC_RETURN_NOT_OK(GetSize(value, "cancelled", &stats.cancelled));
  STRATREC_RETURN_NOT_OK(GetSize(value, "queue_depth", &stats.queue_depth));
  STRATREC_RETURN_NOT_OK(
      GetSize(value, "active_workers", &stats.active_workers));
  STRATREC_RETURN_NOT_OK(GetSize(value, "steals", &stats.steals));
  STRATREC_RETURN_NOT_OK(GetSize(value, "local_hits", &stats.local_hits));
  STRATREC_RETURN_NOT_OK(GetSize(value, "cache_hits", &stats.cache_hits));
  STRATREC_RETURN_NOT_OK(
      GetSize(value, "cache_misses", &stats.cache_misses));
  STRATREC_RETURN_NOT_OK(
      GetSize(value, "index_build_nanos", &stats.index_build_nanos));
  STRATREC_RETURN_NOT_OK(
      GetSize(value, "rejected_requests", &stats.rejected_requests));
  STRATREC_RETURN_NOT_OK(
      GetSize(value, "retry_after_hints", &stats.retry_after_hints));
  // Fault-tolerance counters arrived with journal format v7; absent in v6
  // records, so they decode optionally (default 0) to keep old traces
  // replayable.
  std::optional<size_t> opt;
  STRATREC_RETURN_NOT_OK(GetOptionalSize(value, "deadline_exceeded", &opt));
  stats.deadline_exceeded = opt.value_or(0);
  opt.reset();
  STRATREC_RETURN_NOT_OK(GetOptionalSize(value, "retries", &opt));
  stats.retries = opt.value_or(0);
  opt.reset();
  STRATREC_RETURN_NOT_OK(GetOptionalSize(value, "failovers", &opt));
  stats.failovers = opt.value_or(0);
  opt.reset();
  STRATREC_RETURN_NOT_OK(GetOptionalSize(value, "hedges_won", &opt));
  stats.hedges_won = opt.value_or(0);
  STRATREC_RETURN_NOT_OK(
      GetString(value, "kernel_dispatch", &stats.kernel_dispatch));
  return stats;
}

// ---------------------------------------------------------------------------
// Journal records
// ---------------------------------------------------------------------------

namespace {

constexpr char kKindConfig[] = "config";
constexpr char kKindCatalog[] = "catalog";
constexpr char kKindBatch[] = "batch";
constexpr char kKindSweep[] = "sweep";
constexpr char kKindStats[] = "stats";
constexpr char kKindStreamOpen[] = "stream-open";
constexpr char kKindStreamEvent[] = "stream-event";

template <typename Request, typename Report>
std::string EncodePairRecord(const char* kind, const std::string& request_id,
                             const Request& request,
                             const Result<Report>& outcome) {
  Value record = Value::Object();
  record.Add("kind", kind);
  record.Add("request_id", request_id);
  record.Add("request", Encode(request));
  record.Add("status",
             Encode(outcome.ok() ? Status::OK() : outcome.status()));
  if (outcome.ok()) record.Add("report", Encode(*outcome));
  return json::Dump(record);
}

}  // namespace

std::string EncodeConfigRecord(const api::ServiceConfig& config) {
  Value record = Value::Object();
  record.Add("kind", kKindConfig);
  record.Add("config", Encode(config));
  return json::Dump(record);
}

std::string EncodeCatalogRecord(const core::Catalog& catalog) {
  Value record = Value::Object();
  record.Add("kind", kKindCatalog);
  record.Add("catalog", Encode(catalog));
  return json::Dump(record);
}

std::string EncodeBatchRecord(const std::string& request_id,
                              const api::BatchRequest& request,
                              const Result<api::BatchReport>& outcome) {
  return EncodePairRecord(kKindBatch, request_id, request, outcome);
}

std::string EncodeSweepRecord(const std::string& request_id,
                              const api::SweepRequest& request,
                              const Result<api::SweepReport>& outcome) {
  return EncodePairRecord(kKindSweep, request_id, request, outcome);
}

std::string EncodeStatsRecord(const api::ServiceStats& stats) {
  Value record = Value::Object();
  record.Add("kind", kKindStats);
  record.Add("stats", Encode(stats));
  return json::Dump(record);
}

std::string EncodeStatsRecord(const api::ServiceStats& stats,
                              double sim_time) {
  Value record = Value::Object();
  record.Add("kind", kKindStats);
  record.Add("sim_time", sim_time);
  record.Add("stats", Encode(stats));
  return json::Dump(record);
}

std::string EncodeStreamOpenRecord(const StreamOpenRecord& open) {
  Value record = Value::Object();
  record.Add("kind", kKindStreamOpen);
  record.Add("session_id", open.session_id);
  record.Add("options", Encode(open.options));
  record.Add("availability", open.availability);
  return json::Dump(record);
}

std::string EncodeStreamEventRecord(const StreamEventRecord& record_in) {
  Value record = Value::Object();
  record.Add("kind", kKindStreamEvent);
  record.Add("session_id", record_in.session_id);
  record.Add("seq", record_in.seq);
  record.Add("event", Encode(record_in.event));
  record.Add("status", Encode(record_in.status));
  if (record_in.status.ok()) record.Add("update", Encode(record_in.update));
  return json::Dump(record);
}

Result<JournalTrace> DecodeTrace(const std::vector<std::string>& records) {
  JournalTrace trace;
  size_t line_number = 1;  // header is line 1; records start at 2
  for (const std::string& line : records) {
    ++line_number;
    auto parsed = json::Parse(line);
    if (!parsed.ok()) {
      return Status::InvalidArgument(
          "journal record on line " + std::to_string(line_number) + ": " +
          parsed.status().message());
    }
    if (!parsed->is_object()) return NotAnObject("journal record");
    std::string kind;
    STRATREC_RETURN_NOT_OK(GetString(*parsed, "kind", &kind));

    if (kind == kKindConfig) {
      const Value* config = parsed->Find("config");
      if (config == nullptr) return MissingField("config");
      auto decoded = DecodeServiceConfig(*config);
      if (!decoded.ok()) return decoded.status();
      trace.config = std::move(*decoded);
      trace.has_config = true;
    } else if (kind == kKindCatalog) {
      const Value* catalog = parsed->Find("catalog");
      if (catalog == nullptr) return MissingField("catalog");
      auto decoded = DecodeCatalog(*catalog);
      if (!decoded.ok()) return decoded.status();
      trace.catalog = std::move(*decoded);
      trace.has_catalog = true;
    } else if (kind == kKindBatch || kind == kKindSweep) {
      PairRecord pair;
      pair.kind = kind == kKindBatch ? PairRecord::Kind::kBatch
                                     : PairRecord::Kind::kSweep;
      STRATREC_RETURN_NOT_OK(GetString(*parsed, "request_id",
                                       &pair.request_id));
      const Value* status = parsed->Find("status");
      if (status == nullptr) return MissingField("status");
      STRATREC_RETURN_NOT_OK(DecodeStatus(*status, &pair.status));

      const Value* request = parsed->Find("request");
      if (request == nullptr) return MissingField("request");
      const Value* report = parsed->Find("report");
      if (pair.status.ok() && report == nullptr) return MissingField("report");

      if (pair.kind == PairRecord::Kind::kBatch) {
        auto decoded = DecodeBatchRequest(*request);
        if (!decoded.ok()) return decoded.status();
        pair.batch_request = std::move(*decoded);
        if (pair.status.ok()) {
          auto decoded_report = DecodeBatchReport(*report);
          if (!decoded_report.ok()) return decoded_report.status();
          pair.batch_report = std::move(*decoded_report);
        }
      } else {
        auto decoded = DecodeSweepRequest(*request);
        if (!decoded.ok()) return decoded.status();
        pair.sweep_request = std::move(*decoded);
        if (pair.status.ok()) {
          auto decoded_report = DecodeSweepReport(*report);
          if (!decoded_report.ok()) return decoded_report.status();
          pair.sweep_report = std::move(*decoded_report);
        }
      }
      trace.pairs.push_back(std::move(pair));
    } else if (kind == kKindStats) {
      const Value* stats = parsed->Find("stats");
      if (stats == nullptr) return MissingField("stats");
      auto decoded = DecodeServiceStats(*stats);
      if (!decoded.ok()) return decoded.status();
      StatsRecord checkpoint;
      checkpoint.stats = std::move(*decoded);
      if (parsed->Find("sim_time") != nullptr) {
        STRATREC_RETURN_NOT_OK(
            GetDouble(*parsed, "sim_time", &checkpoint.sim_time));
        checkpoint.has_sim_time = true;
      }
      trace.stats.push_back(std::move(checkpoint));
    } else if (kind == kKindStreamOpen) {
      StreamOpenRecord open;
      STRATREC_RETURN_NOT_OK(GetString(*parsed, "session_id",
                                       &open.session_id));
      const Value* options = parsed->Find("options");
      if (options == nullptr) return MissingField("options");
      auto decoded = DecodeStreamOptions(*options);
      if (!decoded.ok()) return decoded.status();
      open.options = std::move(*decoded);
      STRATREC_RETURN_NOT_OK(GetDouble(*parsed, "availability",
                                       &open.availability));
      trace.stream_opens.push_back(std::move(open));
    } else if (kind == kKindStreamEvent) {
      StreamEventRecord record;
      STRATREC_RETURN_NOT_OK(GetString(*parsed, "session_id",
                                       &record.session_id));
      STRATREC_RETURN_NOT_OK(GetSize(*parsed, "seq", &record.seq));
      const Value* event = parsed->Find("event");
      if (event == nullptr) return MissingField("event");
      auto decoded_event = DecodeStreamEvent(*event);
      if (!decoded_event.ok()) return decoded_event.status();
      record.event = std::move(*decoded_event);
      const Value* status = parsed->Find("status");
      if (status == nullptr) return MissingField("status");
      STRATREC_RETURN_NOT_OK(DecodeStatus(*status, &record.status));
      if (record.status.ok()) {
        const Value* update = parsed->Find("update");
        if (update == nullptr) return MissingField("update");
        auto decoded_update = DecodeStreamUpdate(*update);
        if (!decoded_update.ok()) return decoded_update.status();
        record.update = std::move(*decoded_update);
      }
      trace.stream_events.push_back(std::move(record));
    } else {
      return Status::InvalidArgument(
          "unknown journal record kind '" + kind + "' on line " +
          std::to_string(line_number));
    }
  }
  return trace;
}

Result<JournalTrace> ReadTraceFile(const std::string& path) {
  // Segment-rotation aware: a single-file journal reads as a one-segment
  // chain, a rotated one concatenates `<path>`, `<path>.1`, ... in order.
  auto records = JournalReader::ReadAllSegments(path);
  if (!records.ok()) return records.status();
  return DecodeTrace(*records);
}

std::vector<std::string> CompactRecords(
    const std::vector<std::string>& records) {
  // Single pass, line-level: no decode of record payloads — only the kind
  // discriminant is parsed, so compaction cost is O(bytes), not O(solves).
  std::string last_config;
  std::string last_catalog;
  std::string last_stats;
  std::vector<std::string> kept;  // stream-opens + unrecognized, in order
  for (const std::string& line : records) {
    auto parsed = json::Parse(line);
    std::string kind;
    if (!parsed.ok() || !parsed->is_object() ||
        !GetString(*parsed, "kind", &kind).ok()) {
      // Not a record this codec understands; keep it verbatim rather than
      // silently destroying data (the reader will report it exactly as it
      // would have before compaction).
      kept.push_back(line);
      continue;
    }
    if (kind == kKindConfig) {
      last_config = line;
    } else if (kind == kKindCatalog) {
      last_catalog = line;
    } else if (kind == kKindStats) {
      last_stats = line;
    } else if (kind == kKindStreamOpen) {
      kept.push_back(line);
    } else if (kind == kKindBatch || kind == kKindSweep ||
               kind == kKindStreamEvent) {
      // Replayed-out history: dropping a pair loses nothing a compacted
      // chain promises, and dropping a session's event prefix is what the
      // replay-side seq-gap detection exists for.
    } else {
      kept.push_back(line);
    }
  }
  std::vector<std::string> folded;
  folded.reserve(kept.size() + 3);
  if (!last_config.empty()) folded.push_back(std::move(last_config));
  if (!last_catalog.empty()) folded.push_back(std::move(last_catalog));
  for (std::string& line : kept) folded.push_back(std::move(line));
  if (!last_stats.empty()) folded.push_back(std::move(last_stats));
  return folded;
}

}  // namespace stratrec::wire
