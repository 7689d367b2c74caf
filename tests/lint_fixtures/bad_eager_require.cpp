// amped_lint fixture: every require() below builds its message
// before the check runs, so each must be flagged by the
// no-eager-require-message rule.  Compiled never, scanned always (the
// WILL_FAIL ctest amped_lint_catches_eager_require_message runs the
// rule over this file and asserts a nonzero exit).

#include <string>

#include "common/error.hpp"
#include "mapping/parallelism.hpp"
#include "obs/json.hpp"

using namespace amped;

void
checkMapping(const mapping::ParallelismConfig &p, double ub)
{
    // flagged: toString, with the call spread over three lines
    require(ub >= 1.0, "microbatch too small for mapping ",
            p.toString(),
            " (< 1 sample)");
}

void
checkDeadline(const obs::Json &deadline, double ms)
{
    require(ms >= 0.0, "deadline must be >= 0, got ", deadline.dump());
    // flagged: dump
}

void
checkCount(long count)
{
    require(count > 0, "count " + std::to_string(count) + " <= 0");
    // flagged: to_string
}

void
checkValue(double value)
{
    require(value == 0.0, "value ", formatDouble(value), " != 0");
    // flagged: formatDouble
}

// Not flagged: plain message parts are only bound to references, and
// the lazy form builds its message only on failure.
void
checkLazy(const mapping::ParallelismConfig &p, double ub)
{
    require(ub >= 1.0, "microbatch ", ub, " too small");
    if (!(ub >= 1.0))
        fatal("microbatch too small for mapping ", p.toString());
}
