#include "src/core/availability.h"

#include "src/common/float_compare.h"

namespace stratrec::core {

Result<AvailabilityModel> AvailabilityModel::FromPmf(
    std::vector<stats::PmfAtom> atoms) {
  for (const auto& atom : atoms) {
    if (!InUnitInterval(atom.value)) {
      return Status::InvalidArgument(
          "availability fractions must lie in [0, 1]");
    }
  }
  auto pmf = stats::EmpiricalPmf::Create(std::move(atoms));
  if (!pmf.ok()) return pmf.status();
  return AvailabilityModel(std::move(*pmf));
}

Result<AvailabilityModel> AvailabilityModel::FromSamples(
    const std::vector<double>& fractions) {
  for (double f : fractions) {
    if (!InUnitInterval(f)) {
      return Status::InvalidArgument(
          "availability fractions must lie in [0, 1]");
    }
  }
  auto pmf = stats::EmpiricalPmf::FromSamples(fractions);
  if (!pmf.ok()) return pmf.status();
  return AvailabilityModel(std::move(*pmf));
}

}  // namespace stratrec::core
