// Output check that does not rely on the encoder, plus the statistics
// helpers the report uses.
//
// A job's .code output is checked in two steps:
//   1. check_codes: every state of the KISS2 table gets exactly one code,
//      the codes are distinct and nbits >= ceil(log2 n) bits wide, and the
//      reported area equals the paper's (2(ni+nb)+nb+no)*cubes;
//   2. check_cover: the cover re-evaluated from those codes must give, for
//      every row of the table, the row's next-state code and specified
//      outputs. The benchmark's own cube evaluator expands the row's input
//      pattern (it splits a '-' only where some cover cube reads that
//      variable, which decides exactly what full expansion would), so
//      neither simulate_pla nor verify_encoding is trusted.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "nova/nova.hpp"
#include "workloads.hpp"

namespace perfbench {

double median(std::vector<double> v);

/// A percentile in hundredths of a percent (7100 = p71) and where it
/// falls in a sorted sample of n: the nearest-rank position (1-based) and
/// how many samples lie beyond it.
struct TailPercentile {
  int basis_points = 5000;
  int rank = 1;
  int beyond = 0;
  std::string label() const;  ///< "p71", "p99.9"
};

/// The highest percentile of the ladder p1..p99, p99.9, p99.99 that leaves
/// at least ten samples beyond it; the median when no rung does (n < 11).
TailPercentile tail_percentile(int n);

/// Value at `tp.rank` of the sorted samples.
double percentile_value(std::vector<double> v, const TailPercentile& tp);

/// One job's .code output, as serve renders it.
struct CodeOutput {
  std::string id;
  int states = 0;
  int nbits = 0;
  int cubes = 0;
  long area = 0;
  std::vector<std::pair<std::string, std::string>> codes;  ///< name, bits
};

/// Parses the header line and the `.code` lines; false (with *err) when
/// the text is not in that shape.
bool parse_code_output(const std::string& text, CodeOutput* out,
                       std::string* err);

/// Step 1. Empty when the codes and the area are consistent with `m`,
/// else the first problem found.
std::string check_codes(const Machine& m, const CodeOutput& o);

/// A cube of the encoded cover over ni+nb binary inputs (care/value bit
/// masks) asserting the outputs in `outs` (next-state bits, then outputs).
struct BinaryCube {
  std::vector<uint64_t> care, value, outs;
};

/// The minimized cover of `ev` in the benchmark's own representation.
std::vector<BinaryCube> binary_cover(const nova::driver::EvalResult& ev,
                                     int inputs, int nbits, int outputs);

/// Step 2. `codes[s]` is the code of m.states[s] (bit b = state variable
/// b). Empty when every row is implemented, else the first mismatch.
std::string check_cover(const Machine& m, const std::vector<uint64_t>& codes,
                        int nbits, const std::vector<BinaryCube>& cover);

/// Both steps for one job: re-evaluates the cover from the output's codes
/// (driver::evaluate_encoding) and checks it against every row.
std::string check_job_output(const Machine& m, const std::string& output);

}  // namespace perfbench
