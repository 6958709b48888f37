// Functional verification of an encoded implementation against its FSM:
// drive both with random input stimulus and compare next-state codes and
// specified outputs. This is the library-level version of the equivalence
// oracle used throughout the test suite.
#pragma once

#include <string>

#include "nova/nova.hpp"

namespace nova::driver {

struct VerifyOptions {
  int steps = 500;
  uint64_t seed = 1;
  /// Restart from the reset state when an unspecified transition is hit.
  bool restart_on_unspecified = true;
};

struct VerifyResult {
  bool equivalent = true;
  int steps_run = 0;
  int unspecified_hits = 0;
  std::string detail;  ///< first mismatch, human-readable
};

/// Checks that the minimized encoded PLA implements the FSM: for every
/// specified transition visited, the PLA's next-state code equals the code
/// of the FSM's next state and all specified outputs match.
VerifyResult verify_encoding(const fsm::Fsm& fsm, const Encoding& enc,
                             const EvalResult& ev,
                             const VerifyOptions& opts = {});

/// Convenience for callers without an evaluation: minimizes the encoded
/// PLA again with default, unbudgeted espresso options and checks that
/// cover. Prefer the overload above to check the cover that was reported.
VerifyResult verify_encoding(const fsm::Fsm& fsm, const Encoding& enc,
                             const VerifyOptions& opts = {});

}  // namespace nova::driver
