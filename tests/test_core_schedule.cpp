/**
 * @file
 * Tests for pipeline-schedule models and their integration with the
 * evaluator options.
 */

#include <gtest/gtest.h>

#include "common/error.hpp"
#include "core/options.hpp"
#include "core/pipeline_schedule.hpp"

namespace amped {
namespace core {
namespace {

TEST(PipelineScheduleTest, NamesAreDescriptive)
{
    PipelineSchedule gpipe;
    EXPECT_EQ(gpipe.name(), "GPipe");
    PipelineSchedule ofob;
    ofob.kind = PipelineScheduleKind::oneFOneB;
    EXPECT_EQ(ofob.name(), "1F1B");
    PipelineSchedule inter;
    inter.kind = PipelineScheduleKind::interleaved;
    inter.interleaveDegree = 4;
    EXPECT_EQ(inter.name(), "interleaved-1F1B(v=4)");
}

TEST(PipelineScheduleTest, BubbleRatioShrinksWithInterleaving)
{
    PipelineSchedule gpipe;
    EXPECT_DOUBLE_EQ(gpipe.bubbleOverlapRatio(), 1.0);
    PipelineSchedule ofob;
    ofob.kind = PipelineScheduleKind::oneFOneB;
    EXPECT_DOUBLE_EQ(ofob.bubbleOverlapRatio(), 1.0);
    PipelineSchedule inter;
    inter.kind = PipelineScheduleKind::interleaved;
    inter.interleaveDegree = 4;
    EXPECT_DOUBLE_EQ(inter.bubbleOverlapRatio(), 0.25);
}

TEST(PipelineScheduleTest, InterleavingCostsPipelineTraffic)
{
    PipelineSchedule inter;
    inter.kind = PipelineScheduleKind::interleaved;
    inter.interleaveDegree = 4;
    EXPECT_DOUBLE_EQ(inter.ppCommMultiplier(), 4.0);
    PipelineSchedule gpipe;
    EXPECT_DOUBLE_EQ(gpipe.ppCommMultiplier(), 1.0);
}

TEST(PipelineScheduleTest, ActivationResidencyPerSchedule)
{
    PipelineSchedule gpipe;
    PipelineSchedule ofob;
    ofob.kind = PipelineScheduleKind::oneFOneB;

    // 8 stages, 64 microbatches.
    EXPECT_DOUBLE_EQ(gpipe.activationsInFlight(8, 64.0), 64.0);
    EXPECT_DOUBLE_EQ(ofob.activationsInFlight(8, 64.0), 8.0);
    // With few microbatches, residency is capped by N_ub.
    EXPECT_DOUBLE_EQ(ofob.activationsInFlight(8, 4.0), 4.0);
    // No pipeline -> one microbatch in flight.
    EXPECT_DOUBLE_EQ(gpipe.activationsInFlight(1, 64.0), 1.0);

    PipelineSchedule inter;
    inter.kind = PipelineScheduleKind::interleaved;
    inter.interleaveDegree = 2;
    const double residency = inter.activationsInFlight(8, 64.0);
    EXPECT_GT(residency, 8.0);  // more than plain 1F1B
    EXPECT_LT(residency, 64.0); // far less than GPipe
}

TEST(PipelineScheduleTest, ValidationRejectsBadDegrees)
{
    PipelineSchedule bad;
    bad.interleaveDegree = 0;
    EXPECT_THROW(bad.validate(), UserError);
    PipelineSchedule gpipe_with_degree;
    gpipe_with_degree.interleaveDegree = 2; // only interleaved takes v
    EXPECT_THROW(gpipe_with_degree.validate(), UserError);
    PipelineSchedule inter;
    inter.kind = PipelineScheduleKind::interleaved;
    inter.interleaveDegree = 2;
    EXPECT_NO_THROW(inter.validate());
    EXPECT_THROW(inter.activationsInFlight(0, 4.0), UserError);
    EXPECT_THROW(inter.activationsInFlight(4, 0.5), UserError);
}

// The degree check builds its message only when it fails; this pins
// the full text.
TEST(PipelineScheduleTest, DegreeMessageIsExact)
{
    PipelineSchedule ofob;
    ofob.kind = PipelineScheduleKind::oneFOneB;
    ofob.interleaveDegree = 3;
    try {
        ofob.validate();
        ADD_FAILURE() << "expected a UserError";
    } catch (const UserError &error) {
        EXPECT_STREQ(error.what(), "pipeline schedule: 1F1B does not "
                                   "take an interleave degree");
    }
}

TEST(PipelineScheduleTest, ApplyScheduleSetsOptions)
{
    ModelOptions options;
    PipelineSchedule inter;
    inter.kind = PipelineScheduleKind::interleaved;
    inter.interleaveDegree = 4;
    applySchedule(inter, options);
    EXPECT_DOUBLE_EQ(options.bubbleOverlapRatio, 0.25);
    EXPECT_DOUBLE_EQ(options.ppCommMultiplier, 4.0);
}

} // namespace
} // namespace core
} // namespace amped
