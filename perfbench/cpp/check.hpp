#pragma once

#include <string>
#include <vector>

#include "alloc/allocator.hpp"

/// \file check.hpp
/// The benchmark's correctness checks, run untimed after the measured
/// loop: every answer is audited at full cost and its objective is
/// re-derived by a second flow backend; the paper's examples are
/// compared with hand-written expectations.

namespace perfbench {

/// "" when \p r is a certified optimal answer for \p p: feasible, not
/// degraded, clean under audit::audit_result at full cost, and with the
/// same objective as \p p solved by a backend other than the one that
/// produced \p r. \p options are the options \p r was solved with.
std::string check_answer(const lera::alloc::AllocationProblem& p,
                         const lera::alloc::AllocationResult& r,
                         const lera::alloc::AllocatorOptions& options);

/// Energy of the two-phase baseline (partition after register
/// allocation) under \p p's register model; 0 when it is infeasible.
double two_phase_energy(const lera::alloc::AllocationProblem& p);

/// Moves the first register-resident segment of \p r to memory, leaving
/// the claimed stats and energies stale. False when no segment is in a
/// register.
bool corrupt_result(lera::alloc::AllocationResult& r);

/// Solves the paper's Figure 3, Figure 4 and Table 1 problems and
/// compares each reported number with the expectation file at \p path
/// ("name value tolerance" per line). Returns one line per mismatch;
/// \p checked receives the number of expectations compared.
std::vector<std::string> check_paper(const std::string& path, int& checked);

}  // namespace perfbench
