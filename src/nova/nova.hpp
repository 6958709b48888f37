// Top-level driver: encode an FSM's states with any of the library's
// algorithms, build the encoded two-level (PLA) implementation, minimize it
// and report the paper's area metric
//   area = (2*(#inputs + #bits) + #bits + #outputs) * #cubes.
#pragma once

#include <memory>
#include <string>

#include "encoding/baselines.hpp"
#include "encoding/hybrid.hpp"
#include "encoding/io.hpp"
#include "fsm/fsm.hpp"
#include "logic/espresso.hpp"
#include "obs/obs.hpp"

namespace nova::driver {

using encoding::Encoding;

long pla_area(int num_inputs, int nbits, int num_outputs, int cubes);

struct PlaMetrics {
  int nbits = 0;
  int cubes = 0;
  long area = 0;
  long sop_literals = 0;  ///< literal count of the minimized SOP
};

struct EvalResult {
  PlaMetrics metrics;
  logic::CubeSpec spec;     ///< encoded PLA spec (inputs, state bits, outputs)
  logic::Cover minimized;   ///< minimized encoded cover
};

/// Builds the binary PLA implied by (fsm, enc), minimizes it with espresso
/// and reports metrics. The don't-care set includes '-' outputs, unspecified
/// next states, unspecified transitions and unused state codes.
EvalResult evaluate_encoding(const fsm::Fsm& fsm, const Encoding& enc,
                             const logic::EspressoOptions& opts = {});

/// Per-output sum-of-products view of an encoded, minimized cover: for
/// output j, the cubes (over the binary input+state variables) asserting it.
/// Consumed by the multilevel optimizer (mlopt).
std::vector<std::vector<logic::Cube>> per_output_sops(const EvalResult& ev,
                                                      int num_outputs_total);

/// Simulates the minimized PLA for one (input, present-code) point.
/// Returns nbits+num_outputs bits: next-state code then outputs.
/// Throws std::invalid_argument (never asserts or reads out of range) when
/// `input_bits` is not exactly num_inputs() characters of {0,1} or when
/// `state_code` does not fit in the encoding's nbits.
std::string simulate_pla(const EvalResult& ev, const fsm::Fsm& fsm,
                         const std::string& input_bits, uint64_t state_code);

enum class Algorithm {
  kIExact,
  kIHybrid,
  kIGreedy,
  kIoHybrid,
  kIoVariant,
  kKiss,
  kMustangFanout,
  kMustangFanin,
  kRandom,
};

struct NovaOptions {
  Algorithm algorithm = Algorithm::kIHybrid;
  int nbits = 0;             ///< 0 = minimum code length
  long max_work = 20000;     ///< embedding work budget per semiexact call
  long exact_work = 500000;  ///< total budget for iexact
  uint64_t seed = 1;
  /// Apply the satisfaction-directed polish pass after ihybrid/igreedy.
  bool polish = false;
  /// Collect a full obs::Report (spans + counters) for this run; defaults
  /// to the NOVA_TRACE environment variable. Per-phase seconds in
  /// NovaResult::phases are reported regardless of this flag.
  bool trace = obs::env_trace_enabled();
  /// Optional cooperative budget threaded through every phase (constraint
  /// extraction, embedding, final espresso). On exhaustion the run does
  /// not fail: each phase returns its best-so-far result and the final
  /// evaluation degrades minimization quality only. Null = unlimited,
  /// bit-identical to the pre-budget pipeline. See docs/ROBUSTNESS.md.
  util::Budget* budget = nullptr;
  logic::EspressoOptions espresso;
};

/// Wall-clock seconds per pipeline phase (always populated, trace or not).
struct PhaseSeconds {
  double extract = 0.0;  ///< constraint extraction incl. MV minimization
  double embed = 0.0;    ///< the encoding algorithm (embedding/backtracking)
  double polish = 0.0;   ///< satisfaction-directed polish pass
  double final_espresso = 0.0;  ///< encoded-PLA build + final minimization
  double total = 0.0;           ///< whole encode_fsm call
};

struct NovaResult {
  bool success = true;       ///< false when iexact exhausted its budget
  /// True when NovaOptions::budget tripped somewhere in the run; the
  /// result is still valid, just potentially less optimized.
  bool budget_exhausted = false;
  Encoding enc;
  PlaMetrics metrics;
  /// The encoded PLA and its final minimized cover, the one `metrics`
  /// describes; verification checks this cover. Empty when !success.
  EvalResult eval;
  int constraints_total = 0;
  int constraints_satisfied = 0;
  int weight_satisfied = 0;
  int weight_unsatisfied = 0;
  int clength_all = -1;      ///< ihybrid: length at which all ICs satisfied
  PhaseSeconds phases;
  double seconds = 0.0;      ///< == phases.total (kept for compatibility)
  /// Span/counter registry of the run; non-null iff NovaOptions::trace.
  std::shared_ptr<obs::Report> report;
};

/// One-stop encoding + evaluation with the selected algorithm.
NovaResult encode_fsm(const fsm::Fsm& fsm, const NovaOptions& opts = {});

/// Serializes a NovaResult to JSON: success flag, PLA metrics, constraint
/// satisfaction, per-phase seconds, and (when traced) the full span tree
/// and counters under "trace". indent < 0 gives compact output.
std::string dump_report(const NovaResult& res, int indent = 2);

/// The 1-hot baseline: cube count of the minimized 1-hot PLA (equal to the
/// minimized multiple-valued cover cardinality) and the resulting area.
PlaMetrics one_hot_metrics(const fsm::Fsm& fsm,
                           const logic::EspressoOptions& opts = {});

}  // namespace nova::driver
