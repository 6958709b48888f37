#include "check.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <stdexcept>

#include "fsm/kiss_io.hpp"

namespace perfbench {

namespace {

// The percentile ladder in hundredths of a percent: p1..p99, p99.9, p99.99.
std::vector<int> percentile_ladder() {
  std::vector<int> ladder;
  for (int p = 1; p <= 99; ++p) ladder.push_back(p * 100);
  ladder.push_back(9990);
  ladder.push_back(9999);
  return ladder;
}

TailPercentile at(int basis_points, int n) {
  TailPercentile tp;
  tp.basis_points = basis_points;
  // Nearest rank, in integers: ceil(p * n / 100%).
  tp.rank = static_cast<int>(
      (static_cast<int64_t>(basis_points) * n + 9999) / 10000);
  tp.rank = std::max(tp.rank, 1);
  tp.beyond = n - tp.rank;
  return tp;
}

bool intersects(const BinaryCube& a, const BinaryCube& b) {
  for (size_t w = 0; w < a.care.size(); ++w) {
    if ((a.value[w] ^ b.value[w]) & a.care[w] & b.care[w]) return false;
  }
  return true;
}

/// True iff every point of `inner` lies in `outer`.
bool contains(const BinaryCube& outer, const BinaryCube& inner) {
  for (size_t w = 0; w < outer.care.size(); ++w) {
    if (outer.care[w] & ~inner.care[w]) return false;
    if ((outer.value[w] ^ inner.value[w]) & outer.care[w]) return false;
  }
  return true;
}

/// True iff the union of `cands` covers every point of `r`. Expands r's
/// free variables one at a time, only where a candidate reads them.
bool covered(const BinaryCube& r, const std::vector<const BinaryCube*>& cands) {
  std::vector<const BinaryCube*> live;
  for (const BinaryCube* c : cands) {
    if (!intersects(*c, r)) continue;
    if (contains(*c, r)) return true;
    live.push_back(c);
  }
  if (live.empty()) return false;
  // live[0] meets r without containing it, so it reads a variable r leaves
  // free: split r on that variable.
  for (size_t w = 0; w < r.care.size(); ++w) {
    const uint64_t split = live[0]->care[w] & ~r.care[w];
    if (split == 0) continue;
    const uint64_t bit = split & (~split + 1);
    BinaryCube half = r;
    half.care[w] |= bit;
    half.value[w] &= ~bit;
    if (!covered(half, live)) return false;
    half.value[w] |= bit;
    return covered(half, live);
  }
  return false;  // unreachable: an intersecting non-container reads a free var
}

bool test_bit(const std::vector<uint64_t>& v, int i) {
  return (v[i / 64] >> (i % 64)) & 1;
}

void set_bit(std::vector<uint64_t>& v, int i) {
  v[i / 64] |= uint64_t{1} << (i % 64);
}

int words(int bits) { return std::max(1, (bits + 63) / 64); }

std::string row_label(const Machine& m, size_t ri) {
  const Machine::Row& r = m.rows[ri];
  auto state = [&](int s) { return s < 0 ? std::string("*") : m.states[s]; };
  return "row " + std::to_string(ri + 1) + " (" + r.in + ' ' + state(r.ps) +
         ' ' + state(r.ns) + ' ' + r.out + ")";
}

}  // namespace

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

std::string TailPercentile::label() const {
  char buf[16];
  if (basis_points % 100 == 0)
    std::snprintf(buf, sizeof(buf), "p%d", basis_points / 100);
  else
    std::snprintf(buf, sizeof(buf), "p%g", basis_points / 100.0);
  return buf;
}

TailPercentile tail_percentile(int n) {
  TailPercentile best = at(5000, n);
  for (int bp : percentile_ladder()) {
    TailPercentile tp = at(bp, n);
    if (tp.beyond >= 10) best = tp;
  }
  return best;
}

double percentile_value(std::vector<double> v, const TailPercentile& tp) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t i = static_cast<size_t>(tp.rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

bool parse_code_output(const std::string& text, CodeOutput* out,
                       std::string* err) {
  std::istringstream in(text);
  std::string line;
  bool header = false;
  while (std::getline(in, line)) {
    std::istringstream toks(line);
    std::string tok;
    if (!(toks >> tok)) continue;
    if (tok == "#") {
      if (!(toks >> out->id)) break;
      while (toks >> tok) {
        const auto eq = tok.find('=');
        if (eq == std::string::npos) continue;
        const std::string key = tok.substr(0, eq);
        const std::string val = tok.substr(eq + 1);
        if (key == "states") out->states = std::atoi(val.c_str());
        if (key == "nbits") out->nbits = std::atoi(val.c_str());
        if (key == "cubes") out->cubes = std::atoi(val.c_str());
        if (key == "area") out->area = std::atol(val.c_str());
      }
      header = true;
    } else if (tok == ".code") {
      std::string name, bits;
      if (!(toks >> name >> bits)) {
        *err = "malformed .code line '" + line + "'";
        return false;
      }
      out->codes.emplace_back(name, bits);
    } else {
      *err = "unexpected line '" + line + "'";
      return false;
    }
  }
  if (!header) {
    *err = "missing '# <id> ... nbits= cubes= area=' header";
    return false;
  }
  return true;
}

std::string check_codes(const Machine& m, const CodeOutput& o) {
  const int n = static_cast<int>(m.states.size());
  if (o.states != n)
    return "header says " + std::to_string(o.states) + " states, table has " +
           std::to_string(n);
  int need = 0;
  while ((int64_t{1} << need) < n) ++need;
  if (o.nbits < need || o.nbits > 62)
    return std::to_string(o.nbits) + "-bit codes cannot hold " +
           std::to_string(n) + " distinct states";

  std::map<std::string, int> index;
  for (int s = 0; s < n; ++s) index[m.states[s]] = s;
  std::vector<int> seen(n, 0);
  std::vector<uint64_t> values;
  for (const auto& [name, bits] : o.codes) {
    auto it = index.find(name);
    if (it == index.end()) return "code for unknown state " + name;
    if (seen[it->second]++) return "state " + name + " has more than one code";
    if (static_cast<int>(bits.size()) != o.nbits)
      return "code " + bits + " of " + name + " is not " +
             std::to_string(o.nbits) + " bits wide";
    uint64_t v = 0;
    for (char c : bits) {
      if (c != '0' && c != '1') return "code " + bits + " is not binary";
      v = (v << 1) | static_cast<uint64_t>(c == '1');
    }
    values.push_back(v);
  }
  for (int s = 0; s < n; ++s) {
    if (!seen[s]) return "state " + m.states[s] + " has no code";
  }
  std::sort(values.begin(), values.end());
  if (std::adjacent_find(values.begin(), values.end()) != values.end())
    return "two states share a code";

  const long expect =
      (2L * (m.inputs + o.nbits) + o.nbits + m.outputs) * o.cubes;
  if (o.area != expect)
    return "reported area " + std::to_string(o.area) +
           " differs from (2(ni+nb)+nb+no)*cubes = " + std::to_string(expect);
  return "";
}

std::vector<BinaryCube> binary_cover(const nova::driver::EvalResult& ev,
                                     int inputs, int nbits, int outputs) {
  const nova::logic::CubeSpec& spec = ev.spec;
  const int nv = inputs + nbits;
  const int nout = std::min(nbits + outputs, spec.size(nv));
  std::vector<BinaryCube> cover;
  for (const nova::logic::Cube& c : ev.minimized) {
    BinaryCube b{std::vector<uint64_t>(words(nv)),
                 std::vector<uint64_t>(words(nv)),
                 std::vector<uint64_t>(words(nbits + outputs))};
    bool empty = false;
    for (int v = 0; v < nv && !empty; ++v) {
      const bool zero = c.get(spec.bit(v, 0));
      const bool one = c.get(spec.bit(v, 1));
      empty = !zero && !one;
      if (zero != one) {
        set_bit(b.care, v);
        if (one) set_bit(b.value, v);
      }
    }
    if (empty) continue;
    for (int j = 0; j < nout; ++j) {
      if (c.get(spec.bit(nv, j))) set_bit(b.outs, j);
    }
    cover.push_back(std::move(b));
  }
  return cover;
}

std::string check_cover(const Machine& m, const std::vector<uint64_t>& codes,
                        int nbits, const std::vector<BinaryCube>& cover) {
  const int nv = m.inputs + nbits;
  const int ncols = nbits + m.outputs;
  std::vector<std::vector<const BinaryCube*>> asserting(ncols);
  for (const BinaryCube& c : cover) {
    for (int j = 0; j < ncols; ++j) {
      if (test_bit(c.outs, j)) asserting[j].push_back(&c);
    }
  }
  for (size_t ri = 0; ri < m.rows.size(); ++ri) {
    const Machine::Row& r = m.rows[ri];
    BinaryCube point{std::vector<uint64_t>(words(nv)),
                     std::vector<uint64_t>(words(nv)), {}};
    for (int i = 0; i < m.inputs; ++i) {
      if (r.in[i] == '-') continue;
      set_bit(point.care, i);
      if (r.in[i] == '1') set_bit(point.value, i);
    }
    if (r.ps >= 0) {
      for (int b = 0; b < nbits; ++b) {
        set_bit(point.care, m.inputs + b);
        if ((codes[r.ps] >> b) & 1) set_bit(point.value, m.inputs + b);
      }
    }
    for (int j = 0; j < ncols; ++j) {
      bool want;
      if (j < nbits) {
        if (r.ns < 0) continue;  // unspecified next state
        want = (codes[r.ns] >> j) & 1;
      } else {
        const char c = r.out[j - nbits];
        if (c == '-') continue;
        want = c == '1';
      }
      const std::string column =
          j < nbits ? "next-state bit " + std::to_string(j)
                    : "output " + std::to_string(j - nbits);
      if (want && !covered(point, asserting[j]))
        return row_label(m, ri) + ": " + column +
               " is 0 somewhere in the row, expected 1";
      if (!want) {
        for (const BinaryCube* c : asserting[j]) {
          if (intersects(*c, point))
            return row_label(m, ri) + ": " + column +
                   " is 1 somewhere in the row, expected 0";
        }
      }
    }
  }
  return "";
}

std::string check_job_output(const Machine& m, const std::string& output) {
  CodeOutput o;
  std::string err;
  if (!parse_code_output(output, &o, &err)) return err;
  std::string why = check_codes(m, o);
  if (!why.empty()) return why;

  try {
    std::map<std::string, uint64_t> by_name;
    for (const auto& [name, bits] : o.codes)
      by_name[name] = bits.empty() ? 0 : std::stoull(bits, nullptr, 2);
    std::vector<uint64_t> codes;
    for (const std::string& s : m.states) codes.push_back(by_name.at(s));
    const nova::fsm::Fsm f = nova::fsm::parse_kiss_string(kiss_text(m));
    nova::driver::Encoding enc;
    enc.nbits = o.nbits;
    for (int s = 0; s < f.num_states(); ++s)
      enc.codes.push_back(by_name.at(f.state_name(s)));
    const nova::driver::EvalResult ev = nova::driver::evaluate_encoding(f, enc);
    if (ev.minimized.size() != o.cubes)
      return "re-evaluated cover has " + std::to_string(ev.minimized.size()) +
             " cubes, the output reports " + std::to_string(o.cubes);
    return check_cover(m, codes, o.nbits,
                       binary_cover(ev, m.inputs, o.nbits, m.outputs));
  } catch (const std::exception& e) {
    return std::string("re-evaluation failed: ") + e.what();
  }
}

}  // namespace perfbench
