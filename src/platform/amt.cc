#include "src/platform/amt.h"

#include <algorithm>

#include "src/stats/descriptive.h"

namespace stratrec::platform {
namespace {

using core::StageSpec;

StageSpec SeqIndCro() {
  return StageSpec{core::Structure::kSequential,
                   core::Organization::kIndependent,
                   core::WorkStyle::kCrowdOnly};
}

StageSpec SimColCro() {
  return StageSpec{core::Structure::kSimultaneous,
                   core::Organization::kCollaborative,
                   core::WorkStyle::kCrowdOnly};
}

}  // namespace

AmtSimulator::AmtSimulator(const AmtStudyOptions& options, uint64_t seed)
    : options_(options),
      pool_(options.pool, seed),
      executor_(&pool_, options.execution, seed ^ 0x5bd1e995u),
      rng_(seed ^ 0x9E3779B9u) {}

std::vector<AvailabilityCell> AmtSimulator::RunAvailabilityStudy(
    TaskType type) {
  std::vector<AvailabilityCell> cells;
  for (const StageSpec& stage : {SeqIndCro(), SimColCro()}) {
    for (int w = 0; w < kNumWindows; ++w) {
      const auto window = static_cast<DeploymentWindow>(w);
      std::vector<double> fractions;
      for (int r = 0; r < options_.availability_repetitions; ++r) {
        fractions.push_back(pool_.ObserveAvailability(window, type, &rng_));
      }
      AvailabilityCell cell;
      cell.window = window;
      cell.stage = stage;
      cell.mean = stats::Mean(fractions).value_or(0.0);
      cell.std_error = stats::StdError(fractions).value_or(0.0);
      cells.push_back(cell);
    }
  }
  return cells;
}

std::vector<core::Observation> AmtSimulator::CollectModelObservations(
    TaskType type, const StageSpec& stage) {
  const Hit hit = MakeHit("model-fit", type, SampleTasks(type));
  return executor_.CollectObservations(hit, stage,
                                       options_.observation_repetitions);
}

Result<core::Catalog> AmtSimulator::BuildCatalog(TaskType type) {
  core::Catalog catalog;
  for (const StageSpec& stage : core::AllStageSpecs()) {
    auto observations = CollectModelObservations(type, stage);
    auto fitted = core::FitProfile(observations);
    if (!fitted.ok()) return fitted.status();
    catalog.strategies.emplace_back(core::StageName(stage), stage);
    catalog.profiles.push_back(fitted->profile);
  }
  return catalog;
}

Result<core::StratRec> AmtSimulator::BuildStratRec(TaskType type) {
  auto catalog = BuildCatalog(type);
  if (!catalog.ok()) return catalog.status();
  return core::StratRec::Create(std::move(*catalog));
}

Result<MirroredStudyResult> AmtSimulator::RunMirroredStudy(
    TaskType type, int num_tasks, const core::ParamVector& thresholds) {
  auto stratrec = BuildStratRec(type);
  if (!stratrec.ok()) return stratrec.status();

  const Hit hit = MakeHit("mirror", type, SampleTasks(type));
  const std::vector<StageSpec> catalog = core::AllStageSpecs();

  MirroredStudyResult result;
  for (int t = 0; t < num_tasks; ++t) {
    const auto window =
        static_cast<DeploymentWindow>(t % kNumWindows);
    const double availability =
        pool_.ObserveAvailability(window, type, &rng_);

    // --- Guided arm: ask StratRec which strategy to deploy with. ---
    core::DeploymentRequest request;
    request.id = "mirror-" + std::to_string(t);
    request.thresholds = thresholds;
    request.k = 1;
    auto report =
        stratrec->ProcessBatchAtAvailability({request}, availability);
    if (!report.ok()) return report.status();

    StageSpec guided_stage = SeqIndCro();
    const auto& outcome = report->batch.outcomes[0];
    if (outcome.satisfied && !outcome.strategies.empty()) {
      guided_stage = catalog[outcome.strategies.front()];
    } else if (!report->alternatives.empty() &&
               !report->alternatives[0].result.strategies.empty()) {
      guided_stage = catalog[report->alternatives[0].result.strategies.front()];
    }
    const DeploymentOutcome guided = executor_.ExecuteAtAvailability(
        hit, guided_stage, availability, /*guided=*/true);

    // --- Unguided arm: workers self-organize on the shared document, which
    // the paper observed devolves into simultaneous-collaborative editing
    // with edit wars. ---
    const DeploymentOutcome unguided = executor_.ExecuteAtAvailability(
        hit, SimColCro(), availability, /*guided=*/false);

    result.quality_with.push_back(guided.observed.quality);
    result.quality_without.push_back(unguided.observed.quality);
    result.cost_with.push_back(guided.observed.cost);
    result.cost_without.push_back(unguided.observed.cost);
    result.latency_with.push_back(guided.observed.latency);
    result.latency_without.push_back(unguided.observed.latency);
    result.edits_with.push_back(static_cast<double>(guided.num_edits) /
                                std::max<size_t>(1, hit.tasks.size()));
    result.edits_without.push_back(static_cast<double>(unguided.num_edits) /
                                   std::max<size_t>(1, hit.tasks.size()));
  }
  return result;
}

}  // namespace stratrec::platform
