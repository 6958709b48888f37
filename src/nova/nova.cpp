#include "nova/nova.hpp"

#include <optional>

#include <stdexcept>

#include "check/check.hpp"
#include "check/contract.hpp"
#include "check/faultinject.hpp"
#include "constraints/input_constraints.hpp"
#include "constraints/symbolic_min.hpp"
#include "encoding/embed.hpp"
#include "encoding/polish.hpp"

namespace nova::driver {

using encoding::InputConstraint;
using logic::Cover;
using logic::Cube;
using logic::CubeSpec;

long pla_area(int num_inputs, int nbits, int num_outputs, int cubes) {
  return static_cast<long>(2 * (num_inputs + nbits) + nbits + num_outputs) *
         cubes;
}

namespace {

/// Spec of the encoded PLA: binary inputs, binary state bits, and the output
/// characteristic variable (next-state bits then primary outputs).
CubeSpec encoded_spec(const fsm::Fsm& fsm, int nbits) {
  std::vector<int> sizes(fsm.num_inputs() + nbits, 2);
  sizes.push_back(std::max(nbits + fsm.num_outputs(), 1));
  return CubeSpec(std::move(sizes));
}

long count_sop_literals(const Cover& g, int num_binary_vars) {
  long lits = 0;
  for (const auto& c : g) {
    for (int v = 0; v < num_binary_vars; ++v) {
      if (!c.part_full(g.spec(), v)) ++lits;
    }
  }
  return lits;
}

}  // namespace

EvalResult evaluate_encoding(const fsm::Fsm& fsm, const Encoding& enc,
                             const logic::EspressoOptions& opts) {
  const int ni = fsm.num_inputs();
  const int nb = enc.nbits;
  const int no = fsm.num_outputs();
  EvalResult ev;
  ev.spec = encoded_spec(fsm, nb);
  const CubeSpec& spec = ev.spec;
  const int ov = ni + nb;  // index of the output variable
  check::fault::point("driver.evaluate", opts.budget);

  Cover on(spec), dc(spec), specified(spec);
  for (const auto& t : fsm.transitions()) {
    Cube base = Cube::full(spec);
    base.set_binary_from_pla(spec, 0, t.input);
    if (t.present >= 0) {
      uint64_t code = enc.codes[t.present];
      for (int b = 0; b < nb; ++b)
        base.set_value(spec, ni + b, static_cast<int>((code >> b) & 1));
    }
    specified.add(base);

    Cube onc = base;
    for (int k = 0; k < spec.size(ov); ++k) onc.clear(spec.bit(ov, k));
    if (t.next >= 0) {
      uint64_t ncode = enc.codes[t.next];
      for (int b = 0; b < nb; ++b) {
        if ((ncode >> b) & 1) onc.set(spec.bit(ov, b));
      }
    }
    for (int j = 0; j < no; ++j) {
      if (t.output[j] == '1') onc.set(spec.bit(ov, nb + j));
    }
    on.add(onc);

    for (int j = 0; j < no; ++j) {
      if (t.output[j] == '-') {
        Cube d = base;
        d.set_value(spec, ov, nb + j);
        dc.add(d);
      }
    }
    if (t.next < 0 && nb > 0) {
      Cube d = base;
      for (int k = 0; k < spec.size(ov); ++k) d.clear(spec.bit(ov, k));
      for (int b = 0; b < nb; ++b) d.set(spec.bit(ov, b));
      dc.add(d);
    }
  }
  // Unspecified transitions and unused state codes: fully don't-care.
  // Skipped once the budget is exhausted: the complement can be the most
  // expensive step here, and dropping it only under-approximates the
  // don't-care set -- the minimized result stays functionally correct,
  // just larger.
  if (util::budget_ok(opts.budget)) {
    dc.add_all(logic::complement(specified));
    dc.make_scc();
  }

  if (check::active(check::levels::cheap)) {
    check::check_cover(on, "evaluate_encoding on-set");
  }
  ev.minimized = logic::espresso(on, dc, opts);
  if (check::active(check::levels::paranoid)) {
    check::check_espresso_post(ev.minimized, on, dc, "evaluate_encoding");
  }
  ev.metrics.nbits = nb;
  ev.metrics.cubes = ev.minimized.size();
  ev.metrics.area = pla_area(ni, nb, no, ev.metrics.cubes);
  ev.metrics.sop_literals = count_sop_literals(ev.minimized, ni + nb);
  return ev;
}

std::vector<std::vector<Cube>> per_output_sops(const EvalResult& ev,
                                               int num_outputs_total) {
  const CubeSpec& spec = ev.spec;
  const int ov = spec.num_vars() - 1;
  std::vector<std::vector<Cube>> out(num_outputs_total);
  for (const auto& c : ev.minimized) {
    for (int j = 0; j < num_outputs_total && j < spec.size(ov); ++j) {
      if (c.get(spec.bit(ov, j))) out[j].push_back(c);
    }
  }
  return out;
}

std::string simulate_pla(const EvalResult& ev, const fsm::Fsm& fsm,
                         const std::string& input_bits, uint64_t state_code) {
  const CubeSpec& spec = ev.spec;
  const int ni = fsm.num_inputs();
  const int nb = ev.metrics.nbits;
  const int ov = ni + nb;
  // Structured rejection of malformed stimulus: a wrong-width or
  // non-binary input pattern or an out-of-range present-state code would
  // otherwise index past the cube spec (contract abort at best).
  if (static_cast<int>(input_bits.size()) != ni)
    throw std::invalid_argument(
        "simulate_pla: input_bits has " + std::to_string(input_bits.size()) +
        " characters, the machine has " + std::to_string(ni) + " inputs");
  for (char c : input_bits) {
    if (c != '0' && c != '1')
      throw std::invalid_argument(
          std::string("simulate_pla: input_bits character '") + c +
          "' is not 0 or 1");
  }
  if (nb < 64 && state_code >= (uint64_t{1} << nb))
    throw std::invalid_argument(
        "simulate_pla: state_code " + std::to_string(state_code) +
        " does not fit in " + std::to_string(nb) + " state bits");
  Cube point = Cube::full(spec);
  point.set_binary_from_pla(spec, 0, input_bits);
  for (int b = 0; b < nb; ++b)
    point.set_value(spec, ni + b, static_cast<int>((state_code >> b) & 1));
  std::string result(nb + fsm.num_outputs(), '0');
  for (const auto& c : ev.minimized) {
    // The cube fires iff its input/state part covers the point.
    bool fires = true;
    for (int v = 0; v < ov && fires; ++v) {
      for (int k = 0; k < spec.size(v); ++k) {
        int b = spec.bit(v, k);
        if (point.get(b) && !c.get(b)) fires = false;
      }
    }
    if (!fires) continue;
    for (int j = 0; j < nb + fsm.num_outputs(); ++j) {
      if (j < spec.size(ov) && c.get(spec.bit(ov, j))) result[j] = '1';
    }
  }
  return result;
}

PlaMetrics one_hot_metrics(const fsm::Fsm& fsm,
                           const logic::EspressoOptions& opts) {
  auto r = constraints::extract_input_constraints(fsm, opts);
  PlaMetrics m;
  m.nbits = fsm.num_states();
  m.cubes = r.minimized_cubes;
  m.area = pla_area(fsm.num_inputs(), m.nbits, fsm.num_outputs(), m.cubes);
  return m;
}

NovaResult encode_fsm(const fsm::Fsm& fsm, const NovaOptions& opts) {
  NovaResult res;
  if (opts.trace) res.report = std::make_shared<obs::Report>();
  // The session installs the report as the thread's active collector; all
  // spans/counters below (and in the instrumented layers) land in it.
  std::optional<obs::TraceSession> session;
  if (res.report) session.emplace(*res.report);

  const int n = fsm.num_states();
  util::Rng rng(opts.seed);
  util::Budget* bud = opts.budget;
  // Phase-local espresso options carrying the run's budget; with a null
  // budget this is bit-identical to passing opts.espresso through.
  logic::EspressoOptions eopts = opts.espresso;
  eopts.budget = bud;
  {
    obs::Span run_span("nova.run", &res.phases.total);
    if (check::active(check::levels::cheap)) {
      check::check_fsm(fsm, "encode_fsm input");
    }

    // --- extract: input constraints / symbolic minimization -------------
    std::vector<InputConstraint> ics;
    std::optional<constraints::SymbolicMinResult> sm;
    {
      obs::Span span("nova.extract", &res.phases.extract);
      if (opts.algorithm == Algorithm::kIoHybrid ||
          opts.algorithm == Algorithm::kIoVariant) {
        sm = constraints::symbolic_minimize(fsm, eopts);
        ics = sm->ic;
      } else if (opts.algorithm != Algorithm::kRandom &&
                 opts.algorithm != Algorithm::kMustangFanout &&
                 opts.algorithm != Algorithm::kMustangFanin) {
        ics = constraints::extract_input_constraints(fsm, eopts).constraints;
      }
    }

    // --- embed: run the selected encoding algorithm ----------------------
    bool polishable = false;
    {
      obs::Span span("nova.embed", &res.phases.embed);
      switch (opts.algorithm) {
        case Algorithm::kIExact: {
          encoding::InputGraph ig(ics, n);
          encoding::ExactOptions eo;
          eo.max_work = opts.exact_work;
          eo.budget = bud;
          auto er = encoding::iexact_code(ig, eo);
          if (!er.success) {
            res.success = false;
            break;
          }
          res.enc = std::move(er.enc);
          break;
        }
        case Algorithm::kIHybrid: {
          encoding::HybridOptions ho;
          ho.nbits = opts.nbits;
          ho.max_work = opts.max_work;
          ho.seed = opts.seed;
          ho.budget = bud;
          auto hr = encoding::ihybrid_code(ics, n, ho);
          res.enc = std::move(hr.enc);
          res.clength_all = hr.clength_all;
          polishable = true;
          break;
        }
        case Algorithm::kIGreedy: {
          encoding::GreedyOptions go;
          go.nbits = opts.nbits;
          go.seed = opts.seed;
          go.budget = bud;
          auto gr = encoding::igreedy_code(ics, n, go);
          res.enc = std::move(gr.enc);
          polishable = true;
          break;
        }
        case Algorithm::kIoHybrid: {
          encoding::HybridOptions ho;
          ho.nbits = opts.nbits;
          ho.max_work = opts.max_work;
          ho.budget = bud;
          auto ir = encoding::iohybrid_code(sm->ic, sm->clusters, n, ho);
          res.enc = std::move(ir.enc);
          break;
        }
        case Algorithm::kIoVariant: {
          std::vector<InputConstraint> oo;
          for (const auto& s : sm->output_only_ic) oo.push_back({s, 1});
          encoding::HybridOptions ho;
          ho.nbits = opts.nbits;
          ho.max_work = opts.max_work;
          ho.budget = bud;
          auto ir = encoding::iovariant_code(oo, sm->clusters,
                                             sm->cluster_ic, n, ho);
          res.enc = std::move(ir.enc);
          break;
        }
        case Algorithm::kKiss: {
          encoding::HybridOptions ho;
          ho.max_work = opts.max_work;
          ho.budget = bud;
          auto kr = encoding::kiss_code(ics, n, ho);
          res.enc = std::move(kr.enc);
          break;
        }
        case Algorithm::kMustangFanout:
        case Algorithm::kMustangFanin: {
          auto variant = opts.algorithm == Algorithm::kMustangFanout
                             ? encoding::MustangVariant::kFanout
                             : encoding::MustangVariant::kFanin;
          res.enc = encoding::mustang_code(fsm, opts.nbits, variant, rng);
          break;
        }
        case Algorithm::kRandom: {
          int k = std::max(opts.nbits, encoding::min_code_length(n));
          res.enc = encoding::random_encoding(n, k, rng);
          break;
        }
      }
    }
    if (res.success) {
      // --- polish: satisfaction-directed local improvement --------------
      if (opts.polish && polishable) {
        obs::Span span("nova.polish", &res.phases.polish);
        encoding::polish_encoding(res.enc, ics);
      }

      if (check::active(check::levels::paranoid)) {
        check::check_encoding(res.enc, n, ics, "encode_fsm result");
      }

      auto sat = encoding::summarize_satisfaction(res.enc, ics);
      res.constraints_total = sat.satisfied + sat.unsatisfied;
      res.constraints_satisfied = sat.satisfied;
      res.weight_satisfied = sat.weight_satisfied;
      res.weight_unsatisfied = sat.weight_unsatisfied;

      // --- final: encoded-PLA construction + espresso -------------------
      obs::Span span("nova.final", &res.phases.final_espresso);
      res.eval = evaluate_encoding(fsm, res.enc, eopts);
      res.metrics = res.eval.metrics;
    }
  }
  if (bud != nullptr && bud->exhausted()) {
    res.budget_exhausted = true;
    obs::counter_add("robust.budget_exhausted");
  }
  res.seconds = res.phases.total;
  return res;
}

std::string dump_report(const NovaResult& res, int indent) {
  using obs::Json;
  Json j = Json::object();
  j.set("success", res.success);
  j.set("budget_exhausted", res.budget_exhausted);
  Json metrics = Json::object();
  metrics.set("nbits", res.metrics.nbits);
  metrics.set("cubes", res.metrics.cubes);
  metrics.set("area", res.metrics.area);
  metrics.set("sop_literals", res.metrics.sop_literals);
  j.set("metrics", std::move(metrics));
  Json sat = Json::object();
  sat.set("constraints_total", res.constraints_total);
  sat.set("constraints_satisfied", res.constraints_satisfied);
  sat.set("weight_satisfied", res.weight_satisfied);
  sat.set("weight_unsatisfied", res.weight_unsatisfied);
  sat.set("clength_all", res.clength_all);
  j.set("satisfaction", std::move(sat));
  Json phases = Json::object();
  phases.set("extract", res.phases.extract);
  phases.set("embed", res.phases.embed);
  phases.set("polish", res.phases.polish);
  phases.set("final", res.phases.final_espresso);
  phases.set("total", res.phases.total);
  j.set("phases", std::move(phases));
  j.set("trace", res.report ? res.report->to_json() : Json());
  return j.dump(indent);
}

}  // namespace nova::driver
