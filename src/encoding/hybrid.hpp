// ihybrid_code (paper section IV): greedy weight-ordered constraint
// acceptance through bounded-backtrack embedding at the minimum code
// length, followed by the projection coding algorithm (Prop. 4.2.1) on the
// extra dimensions, and igreedy_code (section V): the fast one-pass greedy.
#pragma once

#include "encoding/embed.hpp"

namespace nova::encoding {

/// Projection coding step: extends `enc` by one bit so that every
/// constraint of `sic` stays satisfied and at least one constraint of `ric`
/// becomes satisfied (Prop. 4.2.1). Newly satisfied constraints are moved
/// from `ric` to `sic`.
Encoding project_code(const Encoding& enc, std::vector<InputConstraint>& sic,
                      std::vector<InputConstraint>& ric);

struct HybridOptions {
  int nbits = 0;           ///< target code length; 0 = minimum
  long max_work = 20000;   ///< semiexact budget per call (the "max_work")
  /// Unused: ihybrid is deterministic and its fallback is a sequential
  /// code. Kept because perfbench's traced pipeline still sets it.
  uint64_t seed = 1;
  /// Extension over the paper: run the semiexact phase directly at `nbits`
  /// instead of the minimum code length (the paper always starts at the
  /// minimum and projects up). Useful when the caller sweeps code lengths.
  bool start_at_nbits = false;
  /// Optional cooperative budget. On exhaustion the run keeps its
  /// constraints accepted so far, rejects the rest, and still produces a
  /// complete valid encoding. Null = unlimited.
  util::Budget* budget = nullptr;
};

struct HybridResult {
  Encoding enc;
  std::vector<InputConstraint> sic;  ///< satisfied input constraints
  std::vector<InputConstraint> ric;  ///< rejected/unsatisfied constraints
  int min_length = 0;
  /// Code length at which every input constraint was satisfied; -1 if the
  /// run stopped (nbits cap) while some constraint was still unsatisfied.
  int clength_all = -1;
  bool used_random_fallback = false;
};

HybridResult ihybrid_code(const std::vector<InputConstraint>& ics,
                          int num_states, const HybridOptions& opts = {});

struct GreedyOptions {
  int nbits = 0;      ///< target code length; 0 = minimum
  /// Unused: igreedy is deterministic. Kept because perfbench's traced
  /// pipeline still sets it.
  uint64_t seed = 1;
  /// Cooperative budget. An exhausted run stops placing constraint faces
  /// but always completes the encoding (every state gets a code).
  util::Budget* budget = nullptr;
};

struct GreedyResult {
  Encoding enc;
  int satisfied = 0;
  int unsatisfied = 0;
  int weight_unsatisfied = 0;
};

/// igreedy_code: bottom-up greedy from the deepest constraint intersections;
/// never undoes a choice. `nbits` = 0 means the minimum code length.
GreedyResult igreedy_code(const std::vector<InputConstraint>& ics,
                          int num_states, int nbits = 0);
GreedyResult igreedy_code(const std::vector<InputConstraint>& ics,
                          int num_states, const GreedyOptions& opts);

}  // namespace nova::encoding
