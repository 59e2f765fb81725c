#include "phasespace/supervised.hpp"

namespace tca::phasespace {

SupervisedGoeCensus supervised_goe_census(
    const core::Automaton& a, const runtime::SupervisorOptions& options) {
  SupervisedGoeCensus out;
  runtime::Supervisor supervisor(options);
  out.report = supervisor.run(
      "phasespace.goe_census", [&](runtime::AttemptContext& ctx) {
        out.census = count_gardens_of_eden_explicit(a, ctx.control, ctx.rung);
        return out.census.truncated ? runtime::AttemptOutcome::kTruncated
                                    : runtime::AttemptOutcome::kCompleted;
      });
  return out;
}

}  // namespace tca::phasespace
