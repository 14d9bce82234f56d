// Micro-benchmarks for the substrate libraries and the SoA SIMD kernels.
//
// The kernel section times each dispatched kernel twice — forced scalar,
// then the active dispatch level — and reports throughput (cells/sec for
// the workforce cell fill and for the pricer's select scan, comparisons/sec
// for dominance, params/sec for estimation) plus the simd_speedup ratio; CI
// asserts the ratio never drops below 0.95 on AVX2 runners. The substrate
// section ports the original R-tree / skyband / knapsack / OLS / k-smallest
// micro-benchmarks. Results land in micro_substrates.json (override with
// argv[1]).
//
// Hand-rolled timing (calibrated repetition loops over steady_clock, no
// google-benchmark dependency) so the perf CI job can build and run it.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "src/common/ascii_table.h"
#include "src/core/catalog_index.h"
#include "src/core/kernels/kernels.h"
#include "src/core/knapsack.h"
#include "src/core/skyline.h"
#include "src/core/workforce.h"
#include "src/geometry/k_smallest.h"
#include "src/geometry/rtree.h"
#include "src/stats/linear_regression.h"
#include "src/workload/generators.h"

namespace {

namespace core = stratrec::core;
namespace geo = stratrec::geo;
namespace kernels = stratrec::core::kernels;
namespace workload = stratrec::workload;

/// Keeps `value` observable so the timed loop is not dead-code eliminated.
template <typename T>
inline void Escape(T&& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Seconds per iteration of `fn`, from a repetition loop calibrated to run
/// at least `min_seconds` of wall clock (doubling reps until it does).
template <typename Fn>
double TimeIt(Fn&& fn, double min_seconds = 0.15) {
  size_t reps = 1;
  for (;;) {
    const auto start = std::chrono::steady_clock::now();
    for (size_t i = 0; i < reps; ++i) fn();
    const double elapsed = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
    if (elapsed >= min_seconds || reps >= (size_t{1} << 30)) {
      return elapsed / static_cast<double>(reps);
    }
    reps = elapsed <= 0.0
               ? reps * 2
               : std::max(reps * 2,
                          static_cast<size_t>(
                              static_cast<double>(reps) * min_seconds /
                              elapsed) +
                              1);
  }
}

struct KernelRow {
  std::string name;
  std::string unit;       // what "per_sec" counts
  size_t n = 0;           // elements per iteration
  double scalar_per_sec = 0.0;
  double simd_per_sec = 0.0;
  double simd_speedup = 0.0;
};

struct SubstrateRow {
  std::string name;
  double seconds_per_iter = 0.0;
};

/// Times one kernel closure under forced-scalar and the active dispatch
/// level; `n` is the per-iteration element count the throughput reports.
template <typename Fn>
KernelRow BenchKernel(const char* name, const char* unit, size_t n, Fn&& fn) {
  KernelRow row;
  row.name = name;
  row.unit = unit;
  row.n = n;
  kernels::Configure({kernels::DispatchLevel::kScalar});
  const double scalar = TimeIt(fn);
  kernels::Configure({});  // restore the startup resolution
  const double simd = TimeIt(fn);
  row.scalar_per_sec = static_cast<double>(n) / scalar;
  row.simd_per_sec = static_cast<double>(n) / simd;
  row.simd_speedup = simd > 0.0 ? scalar / simd : 0.0;
  return row;
}

std::vector<KernelRow> RunKernelBenches() {
  constexpr size_t kN = 1'000'000;
  workload::Generator generator({}, 0x5117'CA7Bull);
  const auto profiles = generator.Profiles(static_cast<int>(kN));
  const core::CatalogIndex index = core::CatalogIndex::Build(profiles);
  const kernels::CoeffSoA soa{
      index.alphas(core::ParamAxis::kQuality).data(),
      index.betas(core::ParamAxis::kQuality).data(),
      index.alphas(core::ParamAxis::kCost).data(),
      index.betas(core::ParamAxis::kCost).data(),
      index.alphas(core::ParamAxis::kLatency).data(),
      index.betas(core::ParamAxis::kLatency).data()};

  std::vector<KernelRow> rows;

  std::vector<core::WorkforceCell> cells(kN);
  const core::ParamVector thresholds{0.77, 0.95, 1.0};
  rows.push_back(BenchKernel("fill_workforce_cells", "cells", kN, [&] {
    kernels::FillWorkforceCells(soa, 0, kN, thresholds,
                                core::WorkforcePolicy::kPaperMaxOfThree,
                                cells.data());
    Escape(cells.data());
  }));

  // The pricer's scan: the 1M perfbench workload's mid thresholds under the
  // default policy, against the 6th-cheapest feasible requirement as the
  // bound, so every cell is priced and counted and only 5 are kept.
  const core::ParamVector batch_thresholds{0.65, 0.8, 0.8};
  kernels::FillWorkforceCells(soa, 0, kN, batch_thresholds,
                              core::WorkforcePolicy::kMinimalWorkforce,
                              cells.data());
  std::vector<double> feasible;
  for (const core::WorkforceCell& cell : cells) {
    if (cell.feasible) feasible.push_back(cell.requirement);
  }
  std::nth_element(feasible.begin(), feasible.begin() + 5, feasible.end());
  const double bound = feasible[5];
  std::vector<kernels::SelectedCell> selected(kN);
  rows.push_back(BenchKernel("select_workforce_cells", "cells", kN, [&] {
    size_t size = 0;
    Escape(kernels::SelectWorkforceCells(
        soa, 0, kN, batch_thresholds, core::WorkforcePolicy::kMinimalWorkforce,
        bound, 0, selected.data(), &size));
    Escape(selected.data());
  }));

  std::vector<core::ParamVector> params(kN);
  rows.push_back(BenchKernel("estimate_params", "params", kN, [&] {
    kernels::EstimateParams(soa, 0.5, 0, kN, params.data());
    Escape(params.data());
  }));

  // Dominance over the estimated block, SoA-transposed; a query point worse
  // than most so CountDominators does full-width counting work.
  kernels::EstimateParams(soa, 0.5, 0, kN, params.data());
  std::vector<double> quality(kN), cost(kN), latency(kN);
  for (size_t i = 0; i < kN; ++i) {
    quality[i] = params[i].quality;
    cost[i] = params[i].cost;
    latency[i] = params[i].latency;
  }
  const kernels::PointSoA pts{quality.data(), cost.data(), latency.data()};
  const core::ParamVector query{0.10, 0.95, 0.95};
  rows.push_back(BenchKernel("count_dominators", "comparisons", kN, [&] {
    Escape(kernels::CountDominators(pts, kN, query));
  }));

  return rows;
}

std::vector<SubstrateRow> RunSubstrateBenches() {
  std::vector<SubstrateRow> rows;
  auto add = [&](const char* name, double seconds) {
    rows.push_back(SubstrateRow{name, seconds});
  };

  {
    stratrec::Rng rng(1);
    std::vector<geo::Point3> points;
    points.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      points.push_back({rng.Uniform(), rng.Uniform(), rng.Uniform()});
    }
    add("rtree_insert_10k", TimeIt([&] {
          geo::RTree tree;
          for (int i = 0; i < 10000; ++i) {
            tree.Insert(points[static_cast<size_t>(i)], i);
          }
          Escape(tree.size());
        }));
    geo::RTree tree;
    for (int i = 0; i < 10000; ++i) {
      tree.Insert(points[static_cast<size_t>(i)], i);
    }
    const geo::Rect3 box{{0.2, 0.2, 0.2}, {0.5, 0.5, 0.5}};
    add("rtree_query_10k", TimeIt([&] { Escape(tree.Count(box)); }));
  }

  {
    workload::Generator generator({}, 3);
    const auto strategies = generator.StrategyParams(2000);
    add("kskyband_2k", TimeIt([&] { Escape(core::KSkyband(strategies, 5)); }));
  }

  {
    workload::GeneratorOptions options;
    options.distribution = workload::DimDistribution::kNormal;
    workload::Generator generator(options, 4);
    const auto strategies = generator.StrategyParams(3000);
    const core::ParamVector d{0.9, 0.2, 0.2};
    add("adpar_exact_3k",
        TimeIt([&] { Escape(core::AdparExact(strategies, d, 5)); }));
    add("adpar_skyband_3k",
        TimeIt([&] { Escape(core::AdparExactSkyband(strategies, d, 5)); }));
  }

  {
    stratrec::Rng rng(5);
    std::vector<core::KnapsackItem> items;
    for (int i = 0; i < 100000; ++i) {
      core::KnapsackItem item;
      item.index = static_cast<size_t>(i);
      item.weight = rng.Uniform(0.01, 0.2);
      item.value = rng.Uniform(0.1, 1.0);
      item.sort_value = item.value;
      items.push_back(item);
    }
    add("greedy_knapsack_100k", TimeIt([&] {
          auto copy = items;
          Escape(core::GreedyKnapsack(std::move(copy), 5.0, {}));
        }));
  }

  {
    stratrec::Rng rng(6);
    std::vector<double> xs, ys;
    for (int i = 0; i < 10000; ++i) {
      const double x = rng.Uniform();
      xs.push_back(x);
      ys.push_back(0.09 * x + 0.85 + rng.Normal(0, 0.02));
    }
    add("fit_linear_10k",
        TimeIt([&] { Escape(stratrec::stats::FitLinear(xs, ys)); }));
  }

  {
    stratrec::Rng rng(7);
    std::vector<double> values;
    for (int i = 0; i < 1000000; ++i) values.push_back(rng.Uniform());
    add("ksmallest_1m", TimeIt([&] {
          geo::KSmallestTracker tracker(10);
          for (double v : values) tracker.Push(v);
          Escape(tracker.KthSmallest());
        }));
  }

  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const char* output_path = argc > 1 ? argv[1] : "micro_substrates.json";
  const char* dispatch = kernels::DispatchLevelName(
      kernels::ActiveDispatchLevel());
  std::printf("micro_substrates: kernels at |S| = 1M (scalar vs %s), plus "
              "substrate micro-benchmarks.\n\n",
              dispatch);

  const std::vector<KernelRow> kernel_rows = RunKernelBenches();
  stratrec::AsciiTable kernel_table(
      {"kernel", "scalar/s", "simd/s", "simd speedup", "unit"});
  for (const KernelRow& r : kernel_rows) {
    kernel_table.AddRow({r.name, stratrec::FormatDouble(r.scalar_per_sec, 0),
                         stratrec::FormatDouble(r.simd_per_sec, 0),
                         stratrec::FormatDouble(r.simd_speedup, 2) + "x",
                         r.unit});
  }
  kernel_table.Print();
  std::printf("\n");

  const std::vector<SubstrateRow> substrate_rows = RunSubstrateBenches();
  stratrec::AsciiTable substrate_table({"substrate", "seconds/iter"});
  for (const SubstrateRow& r : substrate_rows) {
    substrate_table.AddRow(
        {r.name, stratrec::FormatDouble(r.seconds_per_iter, 6)});
  }
  substrate_table.Print();

  std::string json =
      "{\n  \"workload\": {\"hardware_threads\": " +
      std::to_string(std::thread::hardware_concurrency()) +
      ", \"kernel_dispatch\": \"" + dispatch + "\", \"compiler_flags\": \"" +
      kernels::CompileFlags() + "\"},\n  \"kernels\": [";
  for (size_t i = 0; i < kernel_rows.size(); ++i) {
    const KernelRow& r = kernel_rows[i];
    json += (i == 0 ? "\n" : ",\n");
    json += "    {\"name\": \"" + r.name + "\", \"unit\": \"" + r.unit +
            "\", \"n\": " + std::to_string(r.n) + ", \"scalar_per_sec\": " +
            stratrec::FormatDouble(r.scalar_per_sec, 0) +
            ", \"simd_per_sec\": " +
            stratrec::FormatDouble(r.simd_per_sec, 0) +
            ", \"simd_speedup\": " +
            stratrec::FormatDouble(r.simd_speedup, 3) + "}";
  }
  json += "\n  ],\n  \"substrates\": [";
  for (size_t i = 0; i < substrate_rows.size(); ++i) {
    const SubstrateRow& r = substrate_rows[i];
    json += (i == 0 ? "\n" : ",\n");
    json += "    {\"name\": \"" + r.name + "\", \"seconds_per_iter\": " +
            stratrec::FormatDouble(r.seconds_per_iter, 9) + "}";
  }
  json += "\n  ]\n}\n";

  if (FILE* out = std::fopen(output_path, "w")) {
    std::fputs(json.c_str(), out);
    std::fclose(out);
    std::printf("\n(written to %s)\n", output_path);
  }
  return 0;
}
