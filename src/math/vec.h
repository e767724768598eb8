// The dense vector type of the math and game layers: a plain
// std::vector<double>. Every problem in this repo is tiny (|N| <= a few
// dozen organizations), so no vector class or BLAS sits behind it.
#pragma once

#include <vector>

namespace tradefl::math {

using Vec = std::vector<double>;

}  // namespace tradefl::math
