// Catalog construction helpers for Service callers.
//
// Experiment drivers and tests often start from the *outputs* of the
// modeling stage — synthetic StrategyProfiles from workload::Generator, or
// concrete ParamVectors like the paper's Table 1 — rather than from named
// Strategy workflows. These helpers lift both shapes into the core::Catalog
// a Service is constructed from.
#ifndef STRATREC_API_CATALOG_H_
#define STRATREC_API_CATALOG_H_

#include <string>
#include <vector>

#include "src/core/stratrec.h"

namespace stratrec::api {

/// Wraps bare profiles into a catalog with generated ids
/// ("<prefix>0", "<prefix>1", ...) cycling through the 8 single-stage specs.
core::Catalog CatalogFromProfiles(std::vector<core::StrategyProfile> profiles,
                                  const std::string& prefix = "s");

/// Wraps concrete availability-independent parameter vectors into a catalog
/// of zero-slope profiles: EstimateParams(w) == params[j] for every w. This
/// is how ADPaR-style experiments (which reason over fixed parameter
/// catalogs) run through the Service's sweep mode.
core::Catalog ConstantCatalog(const std::vector<core::ParamVector>& params,
                              const std::string& prefix = "s");

}  // namespace stratrec::api

#endif  // STRATREC_API_CATALOG_H_
