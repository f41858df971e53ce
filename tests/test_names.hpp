// gtest parameter names shared by the test files' shape sweeps.
#pragma once

#include <string>
#include <tuple>

namespace cake {

/// "m<M>n<N>k<K>" for an (m, n, k) parameter tuple. The name is appended
/// to one string: a chain of operator+ on temporaries makes GCC 12 warn
/// -Wrestrict inside std::char_traits.
template <class Tuple>
std::string mnk_name(const Tuple& shape)
{
    std::string name = "m";
    name += std::to_string(std::get<0>(shape));
    name += 'n';
    name += std::to_string(std::get<1>(shape));
    name += 'k';
    name += std::to_string(std::get<2>(shape));
    return name;
}

}  // namespace cake
