#pragma once

/// \file netflow.hpp
/// Umbrella header for the minimum-cost network-flow library.

#include "netflow/decompose.hpp"  // IWYU pragma: export
#include "netflow/fault_injection.hpp"  // IWYU pragma: export
#include "netflow/graph.hpp"      // IWYU pragma: export
#include "netflow/lower_bounds.hpp"  // IWYU pragma: export
#include "netflow/maxflow.hpp"    // IWYU pragma: export
#include "netflow/residual.hpp"   // IWYU pragma: export
#include "netflow/robust.hpp"     // IWYU pragma: export
#include "netflow/select.hpp"     // IWYU pragma: export
#include "netflow/solution.hpp"   // IWYU pragma: export
#include "netflow/types.hpp"      // IWYU pragma: export
#include "netflow/validate.hpp"   // IWYU pragma: export
#include "netflow/workspace.hpp"  // IWYU pragma: export
