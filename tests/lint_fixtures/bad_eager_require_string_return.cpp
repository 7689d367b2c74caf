// amped_lint fixture: the require() below calls name(), a member
// this file declares as returning a std::string by value, so its
// message is built on every call.  None of the rule's builder names
// (toString, format*, dump, ...) appears: only the first pass over
// the scanned files' declarations can flag it.  Compiled never,
// scanned always (the WILL_FAIL ctest
// amped_lint_catches_eager_require_string_return runs the rule over
// this file and asserts a nonzero exit).

#include <cstdint>
#include <string>

#include "common/error.hpp"

using namespace amped;

struct Schedule
{
    bool interleaved = false;
    std::int64_t degree = 1;

    std::string name() const;
    const std::string &label() const;
    void validate() const;
};

std::string
Schedule::name() const
{
    return interleaved ? "interleaved" : "GPipe";
}

void
Schedule::validate() const
{
    // flagged: name, with the call spread over two lines
    require(interleaved || degree == 1, "pipeline schedule: ",
            name(), " does not take an interleave degree");
    // Not flagged: label() returns a reference, so no string is
    // built, and the lazy form builds name() only on failure.
    require(degree >= 1, "schedule ", label(), " needs degree >= 1");
    if (!(degree >= 1))
        fatal("pipeline schedule: ", name(), " needs degree >= 1");
}
