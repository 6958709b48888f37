// Deterministic fault injection: spec parsing, probe-site registry, and
// the sweep that matters -- every registered site, under every fault kind,
// must surface through encode_fsm_robust as a clean, usable Outcome with a
// verify-clean encoding. Never a crash, never a hang, never an invalid
// encoding.
#include "check/faultinject.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "bench_data/benchmarks.hpp"
#include "fsm/kiss_io.hpp"
#include "logic/exact.hpp"
#include "logic/pla_io.hpp"
#include "nova/robust.hpp"
#include "nova/verify.hpp"

using namespace nova;
namespace fault = nova::check::fault;

namespace {

/// Disarms on scope exit so one test's fault cannot leak into the next.
struct Armed {
  explicit Armed(const std::string& spec) { fault::arm(spec); }
  ~Armed() { fault::disarm(); }
};

}  // namespace

TEST(FaultSpec, RegistryIsStableAndNonEmpty) {
  const auto& sites = fault::registered_sites();
  ASSERT_GE(sites.size(), 8u);
  auto has = [&](const char* s) {
    for (const auto& x : sites)
      if (x == s) return true;
    return false;
  };
  EXPECT_TRUE(has("kiss.parse"));
  EXPECT_TRUE(has("espresso.expand"));
  EXPECT_TRUE(has("embed.search"));
  EXPECT_TRUE(has("constraints.extract"));
  EXPECT_TRUE(has("driver.verify"));
}

TEST(FaultSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(fault::arm("nosuchsite:1"), std::invalid_argument);
  EXPECT_THROW(fault::arm("kiss.parse"), std::invalid_argument);
  EXPECT_THROW(fault::arm("kiss.parse:0"), std::invalid_argument);
  EXPECT_THROW(fault::arm("kiss.parse:-3"), std::invalid_argument);
  EXPECT_THROW(fault::arm("kiss.parse:1:bogus"), std::invalid_argument);
  EXPECT_THROW(fault::arm(":1"), std::invalid_argument);
  fault::disarm();
}

TEST(FaultSpec, FiresExactlyOnceAtNthHit) {
  Armed a("kiss.parse:2");
  const std::string text = ".i 1\n.o 1\n0 a b 1\n1 b a 0\n";
  EXPECT_NO_THROW(fsm::parse_kiss_string(text));          // hit 1: no fire
  EXPECT_THROW(fsm::parse_kiss_string(text),               // hit 2: fires
               fault::FaultInjected);
  EXPECT_NO_THROW(fsm::parse_kiss_string(text));          // spent: no re-fire
}

TEST(FaultSpec, ParserSitesThrowCleanly) {
  {
    Armed a("kiss.parse:1");
    EXPECT_THROW(fsm::parse_kiss_string(".i 1\n.o 1\n0 a b 1\n"),
                 fault::FaultInjected);
  }
  {
    Armed a("pla.parse:1");
    EXPECT_THROW(logic::parse_pla_string(".i 2\n.o 1\n01 1\n"),
                 fault::FaultInjected);
  }
}

TEST(FaultSweep, EverySiteAndKindYieldsUsableVerifiedOutcome) {
  fsm::Fsm f = bench_data::load_benchmark("bbara");
  for (const auto& site : fault::registered_sites()) {
    if (site == "kiss.parse" || site == "pla.parse") continue;  // parser-only
    for (const char* kind : {"error", "alloc", "timeout"}) {
      Armed a(site + ":1:" + kind);
      driver::NovaOptions opts;
      auto outcome = driver::encode_fsm_robust(f, opts);
      ASSERT_TRUE(outcome.usable())
          << site << ":" << kind << " -- " << outcome.detail;
      const auto& rr = outcome.value;
      ASSERT_EQ(rr.nova.enc.num_states(), f.num_states())
          << site << ":" << kind;
      EXPECT_TRUE(rr.nova.enc.injective()) << site << ":" << kind;
      EXPECT_TRUE(rr.verified) << site << ":" << kind;
      auto vr = driver::verify_encoding(f, rr.nova.enc);
      EXPECT_TRUE(vr.equivalent)
          << site << ":" << kind << " -- " << vr.detail;
    }
  }
}

TEST(FaultSweep, ExactMinimizeSiteFiresInTheExactMinimizer) {
  // exact_minimize sits outside the encode pipeline (verification and
  // benchmarking use it directly), so its probe is exercised directly.
  logic::CubeSpec spec = logic::CubeSpec::binary(3);
  logic::Cover on(spec);
  logic::Cube q = logic::Cube::full(spec);
  q.set_binary_from_pla(spec, 0, "101");
  on.add(q);
  Armed a("exact.minimize:1");
  EXPECT_THROW(logic::exact_minimize(on), fault::FaultInjected);
  fault::disarm();
  EXPECT_NO_THROW(logic::exact_minimize(on));
}

TEST(FaultSweep, NoFaultMeansOkPassThrough) {
  fault::disarm();
  fsm::Fsm f = bench_data::load_benchmark("lion");
  auto outcome = driver::encode_fsm_robust(f, driver::NovaOptions{},
                                           driver::RobustOptions{
                                               .verify = {},
                                               .allow_downgrade = true,
                                               .budget_from_env = false});
  ASSERT_TRUE(outcome.ok()) << outcome.detail;
  EXPECT_EQ(outcome.value.downgrades, 0);
}

TEST(FaultSweep, VerificationChecksTheReportedCoverWithoutReevaluating) {
  // Each rung evaluates its encoded PLA exactly once and verification
  // checks that cover, so a fault armed at the second evaluation never
  // fires on a clean first rung.
  Armed a("driver.evaluate:2:error");
  fsm::Fsm f = bench_data::load_benchmark("lion");
  auto outcome = driver::encode_fsm_robust(f, driver::NovaOptions{},
                                           driver::RobustOptions{
                                               .verify = {},
                                               .allow_downgrade = true,
                                               .budget_from_env = false});
  ASSERT_TRUE(outcome.ok()) << outcome.detail;
  EXPECT_EQ(outcome.value.downgrades, 0);
  EXPECT_TRUE(outcome.value.verified);
}
