#include "src/api/codec.h"

#include <algorithm>
#include <cmath>
#include <concepts>
#include <limits>
#include <optional>
#include <tuple>
#include <utility>

#include "src/common/enum_names.h"
#include "src/common/journal.h"
#include "src/core/strategy.h"

namespace stratrec::wire {

namespace {

using json::Value;

// ---------------------------------------------------------------------------
// Decode errors: strict member access with field-naming messages.
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

// ---------------------------------------------------------------------------
// Enum wire names. These are part of the format: renaming an enumerator in
// core must not change the wire string without a format-version bump. Each
// wire enum has one {enumerator, name} table that the encoder and the
// parser both read; NamesOf finds it by type.
// ---------------------------------------------------------------------------

constexpr EnumName<core::Objective> kObjectiveNames[] = {
    {core::Objective::kThroughput, "throughput"},
    {core::Objective::kPayoff, "payoff"},
};

constexpr EnumName<core::AggregationMode> kAggregationNames[] = {
    {core::AggregationMode::kSum, "sum"},
    {core::AggregationMode::kMax, "max"},
};

constexpr EnumName<core::WorkforcePolicy> kPolicyNames[] = {
    {core::WorkforcePolicy::kMinimalWorkforce, "minimal-workforce"},
    {core::WorkforcePolicy::kPaperMaxOfThree, "paper-max-of-three"},
};

constexpr EnumName<api::AvailabilitySpec::Kind> kSpecKindNames[] = {
    {api::AvailabilitySpec::Kind::kDefault, "default"},
    {api::AvailabilitySpec::Kind::kFixed, "fixed"},
    {api::AvailabilitySpec::Kind::kPmf, "pmf"},
    {api::AvailabilitySpec::Kind::kSamples, "samples"},
    {api::AvailabilitySpec::Kind::kNamed, "named"},
};

constexpr const auto& NamesOf(core::Objective) { return kObjectiveNames; }
constexpr const auto& NamesOf(core::AggregationMode) {
  return kAggregationNames;
}
constexpr const auto& NamesOf(core::WorkforcePolicy) { return kPolicyNames; }
constexpr const auto& NamesOf(api::AvailabilitySpec::Kind) {
  return kSpecKindNames;
}
constexpr const auto& NamesOf(StatusCode) { return kStatusCodeNames; }
constexpr const auto& NamesOf(api::StreamEvent::Kind) {
  return api::kStreamEventKindNames;
}
constexpr const auto& NamesOf(core::AdmissionDecision::Kind) {
  return api::kAdmissionKindNames;
}

// ---------------------------------------------------------------------------
// Leaf codecs: one ToJson / FromJson pair per value shape, shared by the
// field tables and the hand-written shapes alike. FromJson's `key` names the
// enclosing field in error messages.
// ---------------------------------------------------------------------------

/// TableOf(Tag<T>{}) is the field table of a struct-shaped wire type T.
/// The call is found by argument-dependent lookup where a table is used,
/// so the tables can follow the generic code that walks them.
template <typename T>
struct Tag {};

template <typename T>
concept Tabled = requires { TableOf(Tag<T>{}); };

template <typename E>
concept NamedEnum = requires(E value) { NamesOf(value); };

Value ToJson(double value) { return value; }
Value ToJson(bool value) { return value; }
Value ToJson(size_t value) { return value; }
Value ToJson(int value) { return value; }
Value ToJson(const std::string& value) { return value; }
Value ToJson(const Status& status);
Value ToJson(const core::StageSpec& stage);
Value ToJson(const core::Strategy& strategy);
template <Tabled T>
Value ToJson(const T& value);

Status FromJson(const Value& json, const char* key, double* out) {
  if (!json.is_number()) return WrongType(key, "a number");
  *out = json.AsNumber();
  return Status::OK();
}

Status FromJson(const Value& json, const char* key, bool* out) {
  if (!json.is_bool()) return WrongType(key, "a boolean");
  *out = json.AsBool();
  return Status::OK();
}

/// Integers travel as JSON numbers, exact only up to 2^53: every integer
/// the encoder can have emitted lies in range, and casting anything outside
/// the target type's range would be UB.
template <std::integral I>
  requires(!std::same_as<I, bool>)
Status FromJson(const Value& json, const char* key, I* out) {
  constexpr double kMaxExact = 9007199254740992.0;
  constexpr double kLow = std::max<double>(std::numeric_limits<I>::lowest(),
                                           -kMaxExact);
  constexpr double kHigh = std::min<double>(std::numeric_limits<I>::max(),
                                            kMaxExact);
  if (!json.is_number()) return WrongType(key, "an integer");
  const double number = json.AsNumber();
  if (number < kLow || number > kHigh || number != std::floor(number)) {
    return WrongType(key, "an integer in range");
  }
  *out = static_cast<I>(number);
  return Status::OK();
}

Status FromJson(const Value& json, const char* key, std::string* out) {
  if (!json.is_string()) return WrongType(key, "a string");
  *out = json.AsString();
  return Status::OK();
}

template <NamedEnum E>
Value ToJson(E value) {
  return NameOf(NamesOf(value), value, "?");
}

template <NamedEnum E>
Status FromJson(const Value& json, const char* key, E* out) {
  std::string name;
  STRATREC_RETURN_NOT_OK(FromJson(json, key, &name));
  const std::optional<E> value = ParseName(NamesOf(E{}), name);
  if (!value.has_value()) {
    return Status::InvalidArgument(std::string("field '") + key +
                                   "' has unknown value '" + name + "'");
  }
  *out = *value;
  return Status::OK();
}

Status FromJson(const Value& json, const char* key, Status* out);
Status FromJson(const Value& json, const char* key, core::StageSpec* out);
Status FromJson(const Value& json, const char* key, core::Strategy* out);
template <Tabled T>
Status FromJson(const Value& json, const char* key, T* out);

template <typename T>
Value ToJson(const std::vector<T>& values) {
  Value array = Value::Array();
  for (const T& value : values) array.Append(ToJson(value));
  return array;
}

template <typename T>
Status FromJson(const Value& json, const char* key, std::vector<T>* out) {
  if (!json.is_array()) return WrongType(key, "an array");
  out->clear();
  out->reserve(json.items().size());
  for (const Value& item : json.items()) {
    STRATREC_RETURN_NOT_OK(FromJson(item, key, &out->emplace_back()));
  }
  return Status::OK();
}

/// Decodes the required member `key` of `obj`.
template <typename T>
Status Required(const Value& obj, const char* key, T* out) {
  const Value* member = obj.Find(key);
  if (member == nullptr) return MissingField(key);
  return FromJson(*member, key, out);
}

// ---------------------------------------------------------------------------
// Field tables. A table lists a struct's wire members in wire order; the one
// generic encoder emits them in that order, and the one strict decoder reads
// them back, failing on the first missing or mistyped field. Unknown members
// are ignored on decode.
// ---------------------------------------------------------------------------

/// A plain member. Required, unless it is a std::optional (on the wire iff
/// set) or has an omit rule (off the wire while the rule holds); an absent
/// optional or omittable member decodes to its default.
template <typename T, typename M>
struct Field {
  static constexpr bool kOptional = requires(M value) { value.has_value(); };

  const char* key;
  M T::*member;
  bool (*omit)(const M&) = nullptr;

  void Encode(const T& in, Value* obj) const {
    const M& value = in.*member;
    if constexpr (kOptional) {
      if (value.has_value()) obj->Add(key, ToJson(*value));
    } else if (omit == nullptr || !omit(value)) {
      obj->Add(key, ToJson(value));
    }
  }

  Status Decode(const Value& obj, T* out) const {
    const Value* json = obj.Find(key);
    if (json == nullptr) {
      return kOptional || omit != nullptr ? Status::OK() : MissingField(key);
    }
    if constexpr (kOptional) {
      return FromJson(*json, key, &(out->*member).emplace());
    } else {
      return FromJson(*json, key, &(out->*member));
    }
  }
};

/// request_id / session_id: empty means "service-assigned".
bool OmitEmpty(const std::string& value) { return value.empty(); }

/// deadline_ms: 0 means "no deadline", so a request without one encodes
/// exactly as it did before deadlines existed.
bool OmitNonPositive(const double& value) { return !(value > 0.0); }

/// A member on the wire only while `when` holds for the value, judged from
/// the members listed before it: a sweep cell's result iff its status is
/// OK, a tagged union's member iff its kind carries one.
template <typename T, typename M>
struct When {
  const char* key;
  M T::*member;
  bool (*when)(const T&);

  void Encode(const T& in, Value* obj) const {
    if (when(in)) obj->Add(key, ToJson(in.*member));
  }

  Status Decode(const Value& obj, T* out) const {
    return when(*out) ? Required(obj, key, &(out->*member)) : Status::OK();
  }
};

template <typename T>
bool IsOk(const T& value) {
  return value.status.ok();
}

template <typename T, auto... kKinds>
bool IsKind(const T& value) {
  return ((value.kind == kKinds) || ...);
}

/// A member on the wire iff a bool flag of the value is set (a stream
/// update's alternative, a stats record's sim_time); decoding sets the flag
/// from the member's presence.
template <typename T, typename M>
struct Flagged {
  const char* key;
  M T::*member;
  bool T::*flag;

  void Encode(const T& in, Value* obj) const {
    if (in.*flag) obj->Add(key, ToJson(in.*member));
  }

  Status Decode(const Value& obj, T* out) const {
    const Value* json = obj.Find(key);
    out->*flag = json != nullptr;
    return out->*flag ? FromJson(*json, key, &(out->*member)) : Status::OK();
  }
};

/// ServiceStats' numeric fields, read from api::kStatsCounters (the table
/// the stats stripes and folds walk too) as plain required fields.
struct StatsCounters {
  void Encode(const api::ServiceStats& stats, Value* obj) const {
    for (const api::StatsCounter& counter : api::kStatsCounters) {
      obj->Add(counter.name, ToJson(stats.*counter.member));
    }
  }

  Status Decode(const Value& obj, api::ServiceStats* stats) const {
    for (const api::StatsCounter& counter : api::kStatsCounters) {
      STRATREC_RETURN_NOT_OK(
          Required(obj, counter.name, &(stats->*counter.member)));
    }
    return Status::OK();
  }
};

/// A struct's name (for errors) and its wire members in wire order.
template <typename... F>
struct Table {
  constexpr Table(const char* what_in, F... fields_in)
      : what(what_in), fields(fields_in...) {}

  const char* what;
  std::tuple<F...> fields;
};

template <Tabled T>
void AddFields(const T& value, Value* obj) {
  static constexpr auto kTable = TableOf(Tag<T>{});
  std::apply([&](const auto&... field) { (field.Encode(value, obj), ...); },
             kTable.fields);
}

template <Tabled T>
Status ReadFields(const Value& obj, T* out) {
  static constexpr auto kTable = TableOf(Tag<T>{});
  Status status;
  std::apply(
      [&](const auto&... field) {
        ((status = field.Decode(obj, out)).ok() && ...);
      },
      kTable.fields);
  return status;
}

template <Tabled T>
Value ToJson(const T& value) {
  Value obj = Value::Object();
  AddFields(value, &obj);
  return obj;
}

template <Tabled T>
Status FromJson(const Value& json, const char* /*key*/, T* out) {
  if (!json.is_object()) return NotAnObject(TableOf(Tag<T>{}).what);
  *out = T{};  // whatever the wire leaves out decodes as default
  return ReadFields(json, out);
}

constexpr auto TableOf(Tag<core::ParamVector>) {
  using S = core::ParamVector;
  return Table{"param vector", Field{"quality", &S::quality},
               Field{"cost", &S::cost}, Field{"latency", &S::latency}};
}

constexpr auto TableOf(Tag<core::DeploymentRequest>) {
  using S = core::DeploymentRequest;
  return Table{"deployment request", Field{"id", &S::id},
               Field{"thresholds", &S::thresholds}, Field{"k", &S::k}};
}

constexpr auto TableOf(Tag<core::AdparResult>) {
  using S = core::AdparResult;
  return Table{"adpar result", Field{"alternative", &S::alternative},
               Field{"strategies", &S::strategies},
               Field{"strategy_params", &S::strategy_params},
               Field{"squared_distance", &S::squared_distance},
               Field{"distance", &S::distance}};
}

constexpr auto TableOf(Tag<core::LinearModel>) {
  using S = core::LinearModel;
  return Table{"linear model", Field{"alpha", &S::alpha},
               Field{"beta", &S::beta}};
}

constexpr auto TableOf(Tag<core::StrategyProfile>) {
  using S = core::StrategyProfile;
  return Table{"catalog profile", Field{"quality", &S::quality},
               Field{"cost", &S::cost}, Field{"latency", &S::latency}};
}

constexpr auto TableOf(Tag<core::Catalog>) {
  using S = core::Catalog;
  return Table{"catalog", Field{"strategies", &S::strategies},
               Field{"profiles", &S::profiles}};
}

constexpr auto TableOf(Tag<stats::PmfAtom>) {
  using S = stats::PmfAtom;
  return Table{"pmf atom", Field{"value", &S::value},
               Field{"probability", &S::probability}};
}

constexpr auto TableOf(Tag<api::AvailabilitySpec>) {
  using S = api::AvailabilitySpec;
  using K = S::Kind;
  return Table{"availability spec", Field{"kind", &S::kind},
               When{"value", &S::value, IsKind<S, K::kFixed>},
               When{"atoms", &S::atoms, IsKind<S, K::kPmf>},
               When{"samples", &S::samples, IsKind<S, K::kSamples>},
               When{"name", &S::name, IsKind<S, K::kNamed>}};
}

constexpr auto TableOf(Tag<api::StreamEvent>) {
  using S = api::StreamEvent;
  using K = S::Kind;
  return Table{"stream event", Field{"kind", &S::kind},
               When{"request", &S::request, IsKind<S, K::kArrival>},
               When{"request_id", &S::request_id,
                    IsKind<S, K::kRevocation, K::kCompletion>},
               When{"availability", &S::availability,
                    IsKind<S, K::kAvailabilityChange>}};
}

constexpr auto TableOf(Tag<api::BatchRequest>) {
  using S = api::BatchRequest;
  return Table{"batch request", Field{"request_id", &S::request_id, OmitEmpty},
               Field{"requests", &S::requests},
               Field{"availability", &S::availability},
               Field{"algorithm", &S::algorithm},
               Field{"objective", &S::objective},
               Field{"aggregation", &S::aggregation},
               Field{"policy", &S::policy},
               Field{"recommend_alternatives", &S::recommend_alternatives},
               Field{"adpar_solver", &S::adpar_solver},
               Field{"deadline_ms", &S::deadline_ms, OmitNonPositive}};
}

constexpr auto TableOf(Tag<core::RequestOutcome>) {
  using S = core::RequestOutcome;
  return Table{"request outcome", Field{"request_index", &S::request_index},
               Field{"satisfied", &S::satisfied},
               Field{"eligible", &S::eligible},
               Field{"workforce", &S::workforce},
               Field{"objective_value", &S::objective_value},
               Field{"strategies", &S::strategies}};
}

constexpr auto TableOf(Tag<core::BatchResult>) {
  using S = core::BatchResult;
  return Table{"batch result", Field{"outcomes", &S::outcomes},
               Field{"total_objective", &S::total_objective},
               Field{"workforce_used", &S::workforce_used},
               Field{"satisfied", &S::satisfied},
               Field{"unsatisfied", &S::unsatisfied}};
}

/// The wire carries the aggregator's availability and batch outcome; its
/// strategy_params block is in-process only.
constexpr auto TableOf(Tag<core::AggregatorReport>) {
  using S = core::AggregatorReport;
  return Table{"aggregator report", Field{"availability", &S::availability},
               Field{"batch", &S::batch}};
}

constexpr auto TableOf(Tag<core::AlternativeRecommendation>) {
  using S = core::AlternativeRecommendation;
  return Table{"alternative recommendation",
               Field{"request_index", &S::request_index},
               Field{"result", &S::result}};
}

constexpr auto TableOf(Tag<core::StratRecReport>) {
  using S = core::StratRecReport;
  return Table{"stratrec report", Field{"aggregator", &S::aggregator},
               Field{"alternatives", &S::alternatives},
               Field{"adpar_failures", &S::adpar_failures}};
}

constexpr auto TableOf(Tag<api::BatchReport>) {
  using S = api::BatchReport;
  return Table{"batch report", Field{"request_id", &S::request_id},
               Field{"algorithm", &S::algorithm},
               Field{"availability", &S::availability},
               Field{"result", &S::result}};
}

constexpr auto TableOf(Tag<api::SweepRequest>) {
  using S = api::SweepRequest;
  return Table{"sweep request", Field{"request_id", &S::request_id, OmitEmpty},
               Field{"targets", &S::targets}, Field{"solvers", &S::solvers},
               Field{"availability", &S::availability},
               Field{"deadline_ms", &S::deadline_ms, OmitNonPositive}};
}

constexpr auto TableOf(Tag<api::SweepOutcome>) {
  using S = api::SweepOutcome;
  return Table{"sweep outcome", Field{"target_id", &S::target_id},
               Field{"solver", &S::solver}, Field{"status", &S::status},
               When{"result", &S::result, IsOk<S>}};
}

constexpr auto TableOf(Tag<api::SweepReport>) {
  using S = api::SweepReport;
  return Table{"sweep report", Field{"request_id", &S::request_id},
               Field{"availability", &S::availability},
               Field{"outcomes", &S::outcomes}};
}

constexpr auto TableOf(Tag<api::StreamOptions>) {
  using S = api::StreamOptions;
  return Table{"stream options", Field{"availability", &S::availability},
               Field{"max_pending", &S::max_pending},
               Field{"readmit_on_release", &S::readmit_on_release},
               Field{"objective", &S::objective},
               Field{"aggregation", &S::aggregation},
               Field{"policy", &S::policy},
               Field{"recommend_alternatives", &S::recommend_alternatives},
               Field{"deadline_ms", &S::deadline_ms, OmitNonPositive},
               Field{"session_id", &S::session_id, OmitEmpty}};
}

constexpr auto TableOf(Tag<core::AdmissionDecision>) {
  using S = core::AdmissionDecision;
  return Table{"admission decision", Field{"kind", &S::kind},
               Field{"strategies", &S::strategies},
               Field{"workforce", &S::workforce}};
}

constexpr auto TableOf(Tag<api::StreamUpdate>) {
  using S = api::StreamUpdate;
  return Table{"stream update", Field{"session_id", &S::session_id},
               Field{"kind", &S::kind}, Field{"request_id", &S::request_id},
               Field{"decision", &S::decision},
               Flagged{"alternative", &S::alternative, &S::has_alternative},
               Field{"availability", &S::availability},
               Field{"used_workforce", &S::used_workforce},
               Field{"active", &S::active}, Field{"pending", &S::pending}};
}

constexpr auto TableOf(Tag<api::BatchDefaults>) {
  using S = api::BatchDefaults;
  return Table{"batch defaults", Field{"algorithm", &S::algorithm},
               Field{"objective", &S::objective},
               Field{"aggregation", &S::aggregation},
               Field{"policy", &S::policy},
               Field{"recommend_alternatives", &S::recommend_alternatives},
               Field{"adpar_solver", &S::adpar_solver}};
}

constexpr auto TableOf(Tag<api::StreamDefaults>) {
  using S = api::StreamDefaults;
  return Table{"stream defaults", Field{"max_pending", &S::max_pending},
               Field{"readmit_on_release", &S::readmit_on_release},
               Field{"recommend_alternatives", &S::recommend_alternatives}};
}

constexpr auto TableOf(Tag<api::ExecutionConfig>) {
  using S = api::ExecutionConfig;
  return Table{"execution config", Field{"worker_threads", &S::worker_threads},
               Field{"parallel_grain", &S::parallel_grain}};
}

constexpr auto TableOf(Tag<api::CacheConfig>) {
  using S = api::CacheConfig;
  return Table{"cache config",
               Field{"snapshot_capacity", &S::snapshot_capacity},
               Field{"shards", &S::shards},
               Field{"availability_quantum", &S::availability_quantum}};
}

constexpr auto TableOf(Tag<api::JournalConfig>) {
  using S = api::JournalConfig;
  return Table{"journal config", Field{"path", &S::path},
               Field{"record_cancelled", &S::record_cancelled},
               Field{"flush_every_record", &S::flush_every_record},
               Field{"max_segment_bytes", &S::max_segment_bytes},
               Field{"compact_after_segments", &S::compact_after_segments},
               Field{"retain_segments", &S::retain_segments}};
}

constexpr auto TableOf(Tag<api::ServiceConfig>) {
  using S = api::ServiceConfig;
  return Table{"service config", Field{"batch", &S::batch},
               Field{"stream", &S::stream}, Field{"execution", &S::execution},
               Field{"cache", &S::cache}, Field{"journal", &S::journal},
               Field{"availability", &S::availability}};
}

constexpr auto TableOf(Tag<api::ServiceStats>) {
  using S = api::ServiceStats;
  return Table{"service stats", StatsCounters{},
               Field{"kernel_dispatch", &S::kernel_dispatch}};
}

constexpr auto TableOf(Tag<StreamOpenRecord>) {
  using S = StreamOpenRecord;
  return Table{"stream-open record", Field{"session_id", &S::session_id},
               Field{"options", &S::options},
               Field{"availability", &S::availability}};
}

constexpr auto TableOf(Tag<StreamEventRecord>) {
  using S = StreamEventRecord;
  return Table{"stream-event record", Field{"session_id", &S::session_id},
               Field{"seq", &S::seq}, Field{"event", &S::event},
               Field{"status", &S::status},
               When{"update", &S::update, IsOk<S>}};
}

constexpr auto TableOf(Tag<StatsRecord>) {
  using S = StatsRecord;
  return Table{"stats record",
               Flagged{"sim_time", &S::sim_time, &S::has_sim_time},
               Field{"stats", &S::stats}};
}

// ---------------------------------------------------------------------------
// Hand-written shapes: classes with private members (Status, Strategy) and a
// stage spec, which travels as its canonical name.
// ---------------------------------------------------------------------------

Value ToJson(const Status& status) {
  Value obj = Value::Object();
  obj.Add("code", ToJson(status.code()));
  if (!status.message().empty()) obj.Add("message", status.message());
  return obj;
}

Status FromJson(const Value& json, const char* /*key*/, Status* out) {
  if (!json.is_object()) return NotAnObject("status");
  StatusCode code = StatusCode::kOk;
  std::string message;
  STRATREC_RETURN_NOT_OK(Required(json, "code", &code));
  if (json.Find("message") != nullptr) {
    STRATREC_RETURN_NOT_OK(Required(json, "message", &message));
  }
  *out = Status(code, std::move(message));
  return Status::OK();
}

Value ToJson(const core::StageSpec& stage) { return core::StageName(stage); }

Status FromJson(const Value& json, const char* key, core::StageSpec* out) {
  std::string name;
  STRATREC_RETURN_NOT_OK(FromJson(json, key, &name));
  auto stage = core::ParseStageName(name);
  if (!stage.ok()) return stage.status();
  *out = *stage;
  return Status::OK();
}

Value ToJson(const core::Strategy& strategy) {
  Value obj = Value::Object();
  obj.Add("id", strategy.id());
  obj.Add("stages", ToJson(strategy.stages()));
  return obj;
}

Status FromJson(const Value& json, const char* /*key*/, core::Strategy* out) {
  if (!json.is_object()) return NotAnObject("catalog strategy");
  std::string id;
  std::vector<core::StageSpec> stages;
  STRATREC_RETURN_NOT_OK(Required(json, "id", &id));
  STRATREC_RETURN_NOT_OK(Required(json, "stages", &stages));
  *out = core::Strategy(std::move(id), std::move(stages));
  return Status::OK();
}

template <typename T>
Result<T> DecodeAs(const Value& json) {
  T value;
  STRATREC_RETURN_NOT_OK(FromJson(json, "value", &value));
  return value;
}

}  // namespace

// ---------------------------------------------------------------------------
// Public value-level codec.
// ---------------------------------------------------------------------------

json::Value Encode(const Status& value) { return ToJson(value); }
json::Value Encode(const core::ParamVector& value) { return ToJson(value); }
json::Value Encode(const core::DeploymentRequest& value) {
  return ToJson(value);
}
json::Value Encode(const core::AdparResult& value) { return ToJson(value); }
json::Value Encode(const core::Catalog& value) { return ToJson(value); }
json::Value Encode(const api::AvailabilitySpec& value) { return ToJson(value); }
json::Value Encode(const api::BatchRequest& value) { return ToJson(value); }
json::Value Encode(const api::BatchReport& value) { return ToJson(value); }
json::Value Encode(const api::SweepRequest& value) { return ToJson(value); }
json::Value Encode(const api::SweepReport& value) { return ToJson(value); }
json::Value Encode(const api::StreamOptions& value) { return ToJson(value); }
json::Value Encode(const api::StreamEvent& value) { return ToJson(value); }
json::Value Encode(const api::StreamUpdate& value) { return ToJson(value); }
json::Value Encode(const api::ServiceConfig& value) { return ToJson(value); }
json::Value Encode(const api::ServiceStats& value) { return ToJson(value); }

Status DecodeStatus(const json::Value& value, Status* out) {
  return FromJson(value, "status", out);
}
Result<core::ParamVector> DecodeParamVector(const json::Value& value) {
  return DecodeAs<core::ParamVector>(value);
}
Result<core::DeploymentRequest> DecodeDeploymentRequest(
    const json::Value& value) {
  return DecodeAs<core::DeploymentRequest>(value);
}
Result<core::AdparResult> DecodeAdparResult(const json::Value& value) {
  return DecodeAs<core::AdparResult>(value);
}
Result<core::Catalog> DecodeCatalog(const json::Value& value) {
  return DecodeAs<core::Catalog>(value);
}
Result<api::AvailabilitySpec> DecodeAvailabilitySpec(const json::Value& value) {
  return DecodeAs<api::AvailabilitySpec>(value);
}
Result<api::BatchRequest> DecodeBatchRequest(const json::Value& value) {
  return DecodeAs<api::BatchRequest>(value);
}
Result<api::BatchReport> DecodeBatchReport(const json::Value& value) {
  return DecodeAs<api::BatchReport>(value);
}
Result<api::SweepRequest> DecodeSweepRequest(const json::Value& value) {
  return DecodeAs<api::SweepRequest>(value);
}
Result<api::SweepReport> DecodeSweepReport(const json::Value& value) {
  return DecodeAs<api::SweepReport>(value);
}
Result<api::StreamOptions> DecodeStreamOptions(const json::Value& value) {
  return DecodeAs<api::StreamOptions>(value);
}
Result<api::StreamEvent> DecodeStreamEvent(const json::Value& value) {
  return DecodeAs<api::StreamEvent>(value);
}
Result<api::StreamUpdate> DecodeStreamUpdate(const json::Value& value) {
  return DecodeAs<api::StreamUpdate>(value);
}
Result<api::ServiceConfig> DecodeServiceConfig(const json::Value& value) {
  return DecodeAs<api::ServiceConfig>(value);
}
Result<api::ServiceStats> DecodeServiceStats(const json::Value& value) {
  return DecodeAs<api::ServiceStats>(value);
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

/// {"kind": kind, <the value's table fields>}.
template <Tabled T>
std::string EncodeRecord(const char* kind, const T& value) {
  Value record = Value::Object();
  record.Add("kind", kind);
  AddFields(value, &record);
  return json::Dump(record);
}

/// {"kind": kind, kind: value} — the config and catalog records.
template <typename T>
std::string EncodeNamedRecord(const char* kind, const T& value) {
  Value record = Value::Object();
  record.Add("kind", kind);
  record.Add(kind, ToJson(value));
  return json::Dump(record);
}

template <typename Request, typename Report>
std::string EncodePairRecord(const char* kind, const std::string& request_id,
                             const Request& request,
                             const Result<Report>& outcome) {
  Value record = Value::Object();
  record.Add("kind", kind);
  record.Add("request_id", request_id);
  record.Add("request", ToJson(request));
  record.Add("status",
             ToJson(outcome.ok() ? Status::OK() : outcome.status()));
  if (outcome.ok()) record.Add("report", ToJson(*outcome));
  return json::Dump(record);
}

/// A pair record's fields, decoded into the request and report members
/// its kind names; the report is there iff the status is OK.
template <typename Request, typename Report>
Status DecodePairRecord(const Value& record, PairRecord* pair,
                        Request* request, Report* report) {
  STRATREC_RETURN_NOT_OK(Required(record, "request_id", &pair->request_id));
  STRATREC_RETURN_NOT_OK(Required(record, "status", &pair->status));
  STRATREC_RETURN_NOT_OK(Required(record, "request", request));
  return pair->status.ok() ? Required(record, "report", report)
                           : Status::OK();
}

}  // namespace

std::string EncodeConfigRecord(const api::ServiceConfig& config) {
  return EncodeNamedRecord(kKindConfig, config);
}

std::string EncodeCatalogRecord(const core::Catalog& catalog) {
  return EncodeNamedRecord(kKindCatalog, catalog);
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
  return EncodeRecord(kKindStats, StatsRecord{stats, false, 0.0});
}

std::string EncodeStatsRecord(const api::ServiceStats& stats,
                              double sim_time) {
  return EncodeRecord(kKindStats, StatsRecord{stats, true, sim_time});
}

std::string EncodeStreamOpenRecord(const StreamOpenRecord& open) {
  return EncodeRecord(kKindStreamOpen, open);
}

std::string EncodeStreamEventRecord(const StreamEventRecord& record) {
  return EncodeRecord(kKindStreamEvent, record);
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
    STRATREC_RETURN_NOT_OK(Required(*parsed, "kind", &kind));

    if (kind == kKindConfig) {
      STRATREC_RETURN_NOT_OK(Required(*parsed, kKindConfig, &trace.config));
      trace.has_config = true;
    } else if (kind == kKindCatalog) {
      STRATREC_RETURN_NOT_OK(Required(*parsed, kKindCatalog, &trace.catalog));
      trace.has_catalog = true;
    } else if (kind == kKindBatch) {
      PairRecord& pair = trace.pairs.emplace_back();
      STRATREC_RETURN_NOT_OK(DecodePairRecord(
          *parsed, &pair, &pair.batch_request, &pair.batch_report));
    } else if (kind == kKindSweep) {
      PairRecord& pair = trace.pairs.emplace_back();
      pair.kind = PairRecord::Kind::kSweep;
      STRATREC_RETURN_NOT_OK(DecodePairRecord(
          *parsed, &pair, &pair.sweep_request, &pair.sweep_report));
    } else if (kind == kKindStats) {
      STRATREC_RETURN_NOT_OK(ReadFields(*parsed, &trace.stats.emplace_back()));
    } else if (kind == kKindStreamOpen) {
      STRATREC_RETURN_NOT_OK(
          ReadFields(*parsed, &trace.stream_opens.emplace_back()));
    } else if (kind == kKindStreamEvent) {
      STRATREC_RETURN_NOT_OK(
          ReadFields(*parsed, &trace.stream_events.emplace_back()));
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
        !Required(*parsed, "kind", &kind).ok()) {
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
    } else if (kind != kKindBatch && kind != kKindSweep &&
               kind != kKindStreamEvent) {
      // Stream-opens and unknown kinds survive. Pairs and stream events are
      // replayed-out history: dropping a pair loses nothing a compacted
      // chain promises, and dropping a session's event prefix is what the
      // replay-side seq-gap detection exists for.
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
