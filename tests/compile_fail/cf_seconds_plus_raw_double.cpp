// The sweep engine's boundary rule (DESIGN.md): raw doubles crossing
// back into model code -- a memoised term's probe value, a column
// element -- must be re-wrapped explicitly, `time + Seconds{x}`.
// Adding a bare element to a quantity must not compile, or the
// wrapping discipline is unenforceable.
#include <vector>

#include "common/quantity.hpp"

int
main()
{
    using namespace amped;
    const std::vector<double> column = {1.0, 2.0};
    const Seconds total = Seconds{3.0} + column[0];
    return total.value() > 0.0 ? 0 : 1;
}
