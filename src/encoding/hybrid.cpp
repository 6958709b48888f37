#include "encoding/hybrid.hpp"

#include <algorithm>
#include <set>

namespace nova::encoding {

namespace {

Encoding pad_encoding(const Encoding& enc, const BitVec& raised) {
  Encoding out = enc;
  out.nbits = enc.nbits + 1;
  for (int s = 0; s < enc.num_states(); ++s) {
    if (raised.get(s)) out.codes[s] |= uint64_t{1} << enc.nbits;
  }
  return out;
}

bool all_satisfied(const Encoding& enc,
                   const std::vector<InputConstraint>& ics) {
  for (const auto& ic : ics) {
    if (!constraint_satisfied(enc, ic)) return false;
  }
  return true;
}

/// Moves constraints of `ric` already satisfied by `enc` into `sic`.
void sweep_satisfied(const Encoding& enc, std::vector<InputConstraint>& sic,
                     std::vector<InputConstraint>& ric) {
  std::vector<InputConstraint> still;
  for (auto& ic : ric) {
    if (constraint_satisfied(enc, ic))
      sic.push_back(ic);
    else
      still.push_back(ic);
  }
  ric = std::move(still);
}

Encoding sequential_encoding(int num_states, int nbits) {
  Encoding e;
  e.nbits = nbits;
  e.codes.resize(num_states);
  for (int s = 0; s < num_states; ++s) e.codes[s] = static_cast<uint64_t>(s);
  return e;
}

}  // namespace

Encoding project_code(const Encoding& enc, std::vector<InputConstraint>& sic,
                      std::vector<InputConstraint>& ric) {
  if (ric.empty()) return pad_encoding(enc, BitVec(enc.num_states()));
  // Target: the unsatisfied constraint of maximum weight. Raising exactly
  // its member states always works (Prop. 4.2.1).
  std::vector<int> order(ric.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
  std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
    return ric[a].weight > ric[b].weight;
  });
  BitVec raised = ric[order[0]].states;
  std::vector<int> accepted = {order[0]};
  // Greedy extension: raise more unsatisfied constraints' states when that
  // keeps everything accepted so far (and all of SIC) satisfied.
  for (size_t oi = 1; oi < order.size(); ++oi) {
    BitVec trial = raised | ric[order[oi]].states;
    Encoding cand = pad_encoding(enc, trial);
    bool ok = all_satisfied(cand, sic);
    for (int a : accepted) {
      ok = ok && constraint_satisfied(cand, ric[a]);
    }
    ok = ok && constraint_satisfied(cand, ric[order[oi]]);
    if (ok) {
      raised = trial;
      accepted.push_back(order[oi]);
    }
  }
  Encoding out = pad_encoding(enc, raised);
  sweep_satisfied(out, sic, ric);
  return out;
}

HybridResult ihybrid_code(const std::vector<InputConstraint>& ics,
                          int num_states, const HybridOptions& opts) {
  // Constraints in decreasing weight order (the paper's processing order).
  std::vector<InputConstraint> todo = ics;
  std::stable_sort(todo.begin(), todo.end(),
                   [](const InputConstraint& a, const InputConstraint& b) {
                     return a.weight > b.weight;
                   });
  HybridResult res;
  int min_len = min_code_length(num_states);
  res.min_length = min_len;
  const int nbits = std::max(opts.nbits == 0 ? min_len : opts.nbits, min_len);
  if (opts.start_at_nbits) min_len = nbits;  // semiexact at the target length

  Encoding enc;
  bool have_enc = false;
  for (const auto& ic : todo) {
    // Anytime behavior: once the budget is spent the remaining constraints
    // are rejected wholesale and the run still finishes a valid encoding.
    if (!util::budget_ok(opts.budget)) {
      res.ric.push_back(ic);
      continue;
    }
    std::vector<InputConstraint> trial = res.sic;
    trial.push_back(ic);
    EmbedOptions eo;
    eo.max_work = opts.max_work;
    eo.budget = opts.budget;
    EmbedResult er = semiexact_code(trial, num_states, min_len, eo);
    if (er.success) {
      enc = std::move(er.enc);
      have_enc = true;
      res.sic.push_back(ic);
    } else {
      res.ric.push_back(ic);
    }
  }
  if (!have_enc) {
    // Either there were no constraints, or every single one failed: fall
    // back to an unconstrained embedding, then to a plain injective code.
    EmbedOptions eo;
    eo.max_work = opts.max_work;
    eo.budget = opts.budget;
    EmbedResult er = semiexact_code({}, num_states, min_len, eo);
    if (er.success) {
      enc = std::move(er.enc);
    } else {
      enc = sequential_encoding(num_states, min_len);
      res.used_random_fallback = true;
    }
  }
  sweep_satisfied(enc, res.sic, res.ric);
  if (res.ric.empty()) res.clength_all = min_len;

  int cube_dim = min_len;
  while (!res.ric.empty() && cube_dim < nbits && cube_dim < 62) {
    ++cube_dim;
    enc = project_code(enc, res.sic, res.ric);
    if (res.ric.empty()) res.clength_all = cube_dim;
  }
  res.enc = std::move(enc);
  return res;
}

namespace {

/// All vertices of a face, lexicographically by free-position value.
std::vector<uint64_t> face_vertices(const Face& f, int k) {
  std::vector<int> freepos;
  for (int b = 0; b < k; ++b) {
    if (!((f.mask >> b) & 1)) freepos.push_back(b);
  }
  std::vector<uint64_t> out;
  out.reserve(size_t{1} << freepos.size());
  for (uint64_t v = 0; v < (uint64_t{1} << freepos.size()); ++v) {
    uint64_t code = f.bits;
    for (size_t i = 0; i < freepos.size(); ++i) {
      if ((v >> i) & 1) code |= uint64_t{1} << freepos[i];
    }
    out.push_back(code);
  }
  return out;
}

}  // namespace

GreedyResult igreedy_code(const std::vector<InputConstraint>& ics,
                          int num_states, int nbits) {
  GreedyOptions go;
  go.nbits = nbits;
  return igreedy_code(ics, num_states, go);
}

GreedyResult igreedy_code(const std::vector<InputConstraint>& ics,
                          int num_states, const GreedyOptions& opts) {
  // An exhausted budget stops constraint-face placement early; the
  // trailing free-vertex sweep always runs, so every state gets a code.
  GreedyResult res;
  const int k = std::max(
      opts.nbits == 0 ? min_code_length(num_states) : opts.nbits,
      min_code_length(num_states));
  // Closure under intersection; encode from the deepest sets upwards.
  std::set<BitVec> sets;
  for (const auto& ic : ics) {
    int c = ic.cardinality();
    if (c >= 2 && c < num_states) sets.insert(ic.states);
  }
  bool changed = true;
  while (changed &&
         util::budget_charge(opts.budget, static_cast<long>(sets.size()))) {
    changed = false;
    std::vector<BitVec> cur(sets.begin(), sets.end());
    for (size_t i = 0; i < cur.size(); ++i) {
      for (size_t j = i + 1; j < cur.size(); ++j) {
        BitVec m = cur[i] & cur[j];
        if (m.count() >= 2 && sets.insert(m).second) changed = true;
      }
    }
  }
  std::vector<BitVec> order(sets.begin(), sets.end());
  // Smallest sets first; ties keep the set's BitVec order.
  std::stable_sort(order.begin(), order.end(),
                   [](const BitVec& a, const BitVec& b) {
                     return a.count() < b.count();
                   });

  std::vector<int64_t> code(num_states, -1);
  std::vector<char> used(size_t{1} << k, 0);
  struct Placed {
    Face face;
    BitVec members;
  };
  std::vector<Placed> placed;

  auto violates_placed = [&](uint64_t c, int state) {
    for (const auto& p : placed) {
      if (p.face.contains_code(c) && !p.members.get(state)) return true;
    }
    return false;
  };

  for (const BitVec& s : order) {
    if (!util::budget_charge(opts.budget)) break;  // final sweep still codes all
    // Supercube of already-coded members.
    std::vector<uint64_t> coded;
    std::vector<int> uncoded;
    for (int st = s.first(); st >= 0; st = s.next(st + 1)) {
      if (code[st] >= 0)
        coded.push_back(static_cast<uint64_t>(code[st]));
      else
        uncoded.push_back(st);
    }
    int minlev = 0;
    while ((1 << minlev) < s.count()) ++minlev;
    if (coded.empty()) {
      // Anchor the constraint: seed its first member at a free vertex so
      // the face search below has a supercube to grow from.
      if (uncoded.empty()) continue;
      int st = uncoded.front();
      int64_t pick = -1, fallback = -1;
      for (uint64_t v = 0; v < (uint64_t{1} << k); ++v) {
        if (used[v]) continue;
        if (fallback < 0) fallback = static_cast<int64_t>(v);
        if (!violates_placed(v, st)) {
          pick = static_cast<int64_t>(v);
          break;
        }
      }
      if (pick < 0) pick = fallback;
      if (pick < 0) continue;  // cube full
      code[st] = pick;
      used[pick] = 1;
      coded.push_back(static_cast<uint64_t>(pick));
      uncoded.erase(uncoded.begin());
    }
    Face sc = *supercube_face(coded, k);
    int sclev = sc.level(k);
    bool done = false;
    for (int L = std::max(minlev, sclev); L <= k && !done; ++L) {
      // Faces of level L containing sc: keep sc's free positions free and
      // free up L - sclev more of its specified positions.
      std::vector<int> fixed;
      for (int b = 0; b < k; ++b) {
        if ((sc.mask >> b) & 1) fixed.push_back(b);
      }
      int extra = L - sclev;
      if (extra > static_cast<int>(fixed.size())) break;
      // Enumerate combinations of `extra` positions to free.
      std::vector<int> comb(extra);
      for (int i = 0; i < extra; ++i) comb[i] = i;
      while (!done) {
        Face f = sc;
        for (int ci : comb) {
          f.mask &= ~(uint64_t{1} << fixed[ci]);
          f.bits &= ~(uint64_t{1} << fixed[ci]);
        }
        // Check: no non-member coded state inside; enough usable vertices.
        bool ok = true;
        for (int st = 0; st < num_states && ok; ++st) {
          if (code[st] >= 0 && !s.get(st) &&
              f.contains_code(static_cast<uint64_t>(code[st])))
            ok = false;
        }
        if (ok) {
          std::vector<uint64_t> slots;
          for (uint64_t v : face_vertices(f, k)) {
            if (used[v]) continue;
            slots.push_back(v);
          }
          if (static_cast<int>(slots.size()) >= static_cast<int>(uncoded.size())) {
            // Prefer slots not violating previously placed faces.
            size_t si = 0;
            std::vector<uint64_t> chosen;
            for (int st : uncoded) {
              uint64_t pick = ~uint64_t{0};
              for (size_t j = si; j < slots.size(); ++j) {
                if (!violates_placed(slots[j], st)) {
                  pick = slots[j];
                  std::swap(slots[j], slots[si]);
                  break;
                }
              }
              if (pick == ~uint64_t{0}) pick = slots[si];
              chosen.push_back(pick);
              ++si;
            }
            for (size_t i = 0; i < chosen.size(); ++i) {
              code[uncoded[i]] = static_cast<int64_t>(chosen[i]);
              used[chosen[i]] = 1;
            }
            placed.push_back({f, s});
            done = true;
            break;
          }
        }
        // Next combination.
        int i = extra - 1;
        while (i >= 0 && comb[i] == static_cast<int>(fixed.size()) - extra + i)
          --i;
        if (i < 0) break;
        ++comb[i];
        for (int j = i + 1; j < extra; ++j) comb[j] = comb[j - 1] + 1;
        if (extra == 0) break;  // single (empty) combination only
      }
      if (extra == 0 && !done) continue;
    }
    // If not placed, the constraint is skipped (no undo in igreedy).
  }
  // Remaining states: lowest free vertices, preferring non-violating ones.
  for (int st = 0; st < num_states; ++st) {
    if (code[st] >= 0) continue;
    int64_t pick = -1, fallback = -1;
    for (uint64_t v = 0; v < (uint64_t{1} << k); ++v) {
      if (used[v]) continue;
      if (fallback < 0) fallback = static_cast<int64_t>(v);
      if (!violates_placed(v, st)) {
        pick = static_cast<int64_t>(v);
        break;
      }
    }
    code[st] = pick >= 0 ? pick : fallback;
    used[code[st]] = 1;
  }

  res.enc.nbits = k;
  res.enc.codes.resize(num_states);
  for (int st = 0; st < num_states; ++st)
    res.enc.codes[st] = static_cast<uint64_t>(code[st]);
  for (const auto& ic : ics) {
    if (constraint_satisfied(res.enc, ic)) {
      ++res.satisfied;
    } else {
      ++res.unsatisfied;
      res.weight_unsatisfied += ic.weight;
    }
  }
  return res;
}

}  // namespace nova::encoding
