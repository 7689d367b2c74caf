#include "pipeline_schedule.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "core/options.hpp"

namespace amped {
namespace core {

std::string
PipelineSchedule::name() const
{
    switch (kind) {
      case PipelineScheduleKind::gpipe:
        return "GPipe";
      case PipelineScheduleKind::oneFOneB:
        return "1F1B";
      case PipelineScheduleKind::interleaved:
        return "interleaved-1F1B(v=" +
               std::to_string(interleaveDegree) + ")";
    }
    AMPED_ASSERT(false, "unknown PipelineScheduleKind enumerator");
    return {};
}

void
PipelineSchedule::validate() const
{
    require(interleaveDegree >= 1,
            "pipeline schedule: interleave degree must be >= 1, got ",
            interleaveDegree);
    if (kind != PipelineScheduleKind::interleaved && interleaveDegree != 1)
        fatal("pipeline schedule: ", name(),
              " does not take an interleave degree");
}

double
PipelineSchedule::bubbleOverlapRatio() const
{
    validate();
    if (kind == PipelineScheduleKind::interleaved)
        return 1.0 / static_cast<double>(interleaveDegree);
    return 1.0;
}

double
PipelineSchedule::ppCommMultiplier() const
{
    validate();
    if (kind == PipelineScheduleKind::interleaved)
        return static_cast<double>(interleaveDegree);
    return 1.0;
}

double
PipelineSchedule::activationsInFlight(std::int64_t pp,
                                      double n_ub) const
{
    validate();
    require(pp >= 1, "pipeline schedule: pp must be >= 1, got ", pp);
    require(n_ub >= 1.0,
            "pipeline schedule: n_ub must be >= 1, got ", n_ub);
    if (pp == 1)
        return 1.0;
    switch (kind) {
      case PipelineScheduleKind::gpipe:
        // Every microbatch's activations live until its backward.
        return n_ub;
      case PipelineScheduleKind::oneFOneB:
        // At most the pipeline depth is in flight.
        return std::min(static_cast<double>(pp), n_ub);
      case PipelineScheduleKind::interleaved:
        // 1F1B residency plus one extra chunk's worth of warm-up
        // microbatches per additional chunk.
        return std::min(
            static_cast<double>(pp) *
                (1.0 + (static_cast<double>(interleaveDegree) - 1.0) /
                           static_cast<double>(interleaveDegree)),
            n_ub);
    }
    AMPED_ASSERT(false, "unknown PipelineScheduleKind enumerator");
    return 1.0;
}

void
applySchedule(const PipelineSchedule &schedule, ModelOptions &options)
{
    schedule.validate();
    options.bubbleOverlapRatio = schedule.bubbleOverlapRatio();
    options.ppCommMultiplier = schedule.ppCommMultiplier();
}

} // namespace core
} // namespace amped
