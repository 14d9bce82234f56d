#include "src/api/availability.h"

#include "src/common/float_compare.h"

namespace stratrec::api {

AvailabilitySpec AvailabilitySpec::Fixed(double w) {
  AvailabilitySpec spec;
  spec.kind = Kind::kFixed;
  spec.value = w;
  return spec;
}

AvailabilitySpec AvailabilitySpec::FromPmf(std::vector<stats::PmfAtom> atoms) {
  AvailabilitySpec spec;
  spec.kind = Kind::kPmf;
  spec.atoms = std::move(atoms);
  return spec;
}

AvailabilitySpec AvailabilitySpec::FromSamples(std::vector<double> samples) {
  AvailabilitySpec spec;
  spec.kind = Kind::kSamples;
  spec.samples = std::move(samples);
  return spec;
}

AvailabilitySpec AvailabilitySpec::Named(std::string name) {
  AvailabilitySpec spec;
  spec.kind = Kind::kNamed;
  spec.name = std::move(name);
  return spec;
}

Result<double> ResolveAvailability(
    const AvailabilitySpec& spec,
    const std::unordered_map<std::string, core::AvailabilityModel>& models,
    double default_availability) {
  switch (spec.kind) {
    case AvailabilitySpec::Kind::kDefault:
      return default_availability;
    case AvailabilitySpec::Kind::kFixed:
      if (!InUnitInterval(spec.value)) {
        return Status::InvalidArgument("availability must lie in [0, 1]");
      }
      return spec.value;
    case AvailabilitySpec::Kind::kPmf: {
      auto model = core::AvailabilityModel::FromPmf(spec.atoms);
      if (!model.ok()) return model.status();
      return model->ExpectedAvailability();
    }
    case AvailabilitySpec::Kind::kSamples: {
      auto model = core::AvailabilityModel::FromSamples(spec.samples);
      if (!model.ok()) return model.status();
      return model->ExpectedAvailability();
    }
    case AvailabilitySpec::Kind::kNamed: {
      auto it = models.find(spec.name);
      if (it == models.end()) {
        return Status::NotFound("no availability model named '" + spec.name +
                                "'");
      }
      return it->second.ExpectedAvailability();
    }
  }
  return Status::Internal("unhandled availability spec kind");
}

}  // namespace stratrec::api
