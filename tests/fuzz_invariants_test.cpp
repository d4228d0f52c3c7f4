// The invariant fuzzer's CI smoke gate: a fixed-seed corpus over random zoo
// fabrics must come back clean, case seeds must stay stable (repro lines
// outlive code motion), injected violations must be caught AND reproduce
// from the printed seed alone, and induced sub-allocations of zoo shapes
// must stay valid and compilable. Long runs ride tools/blink_fuzz
// (--iters N --seed S); this suite keeps the per-commit cost small.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "blink/blink/communicator.h"
#include "blink/common/rng.h"
#include "blink/fuzz/fuzz.h"
#include "blink/topology/discovery.h"
#include "blink/topology/zoo.h"

namespace blink::fuzz {
namespace {

// The CI corpus seed; tools/blink_fuzz defaults to the same one so a ctest
// failure here replays directly with `blink_fuzz --case 0x<seed>`.
constexpr std::uint64_t kCorpusSeed = 20260808;

TEST(FuzzInvariants, FixedSeedCorpusIsClean) {
  FuzzOptions options;
  options.workers = 1;  // deterministic cost; results never depend on this
  const FuzzReport report = run(kCorpusSeed, 32, options);
  for (const auto& f : report.failures) {
    ADD_FAILURE() << f.invariant << " case=" << std::hex << f.case_seed
                  << " fabric='" << f.fabric << "' detail='" << f.detail
                  << "' repro='" << f.repro << "'";
  }
  EXPECT_TRUE(report.ok());
  EXPECT_EQ(report.cases, 32u);
  // The corpus must exercise both regimes, or the gate is weaker than it
  // claims (the generator's server-count draw covers [1, 3] by default).
  EXPECT_GT(report.single_server_cases, 0u);
  EXPECT_GT(report.multi_server_cases, 0u);
  EXPECT_EQ(report.single_server_cases + report.multi_server_cases,
            report.cases);
  EXPECT_GT(report.plans, report.cases);  // several shapes per case
  EXPECT_GT(report.executions, report.plans);
}

TEST(FuzzInvariants, CaseSeedsAreStable) {
  // Golden values: a repro line printed by an old build must replay the same
  // case forever. Changing the seed derivation silently invalidates every
  // recorded failure, so it fails loudly here instead.
  EXPECT_EQ(case_seed(kCorpusSeed, 0), 0x0b886a4f38500b21ULL);
  EXPECT_EQ(case_seed(kCorpusSeed, 1), 0xd6927cc28841f924ULL);
  EXPECT_EQ(case_seed(kCorpusSeed, 2), 0xe3f4b2a10be8e643ULL);
  EXPECT_EQ(case_seed(kCorpusSeed, 3), 0x0005ba03136f63c4ULL);
  // Neighbouring indices decorrelate.
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 64; ++i) seeds.insert(case_seed(kCorpusSeed, i));
  EXPECT_EQ(seeds.size(), 64u);
}

TEST(FuzzInvariants, WorkerCountDoesNotChangeTheReport) {
  // Fanned out (4 workers, or 0: the pool's default width) the report must
  // be the serial one, counters and failures alike. The injection gives the
  // cases failures to compare.
  FuzzOptions serial;
  serial.workers = 1;
  serial.inject = "treegen-oracle";
  const FuzzReport a = run(kCorpusSeed, 8, serial);
  EXPECT_FALSE(a.failures.empty());
  for (const int workers : {4, 0}) {
    FuzzOptions fanned = serial;
    fanned.workers = workers;
    const FuzzReport b = run(kCorpusSeed, 8, fanned);
    EXPECT_EQ(a.cases, b.cases) << workers;
    EXPECT_EQ(a.single_server_cases, b.single_server_cases) << workers;
    EXPECT_EQ(a.multi_server_cases, b.multi_server_cases) << workers;
    EXPECT_EQ(a.plans, b.plans) << workers;
    EXPECT_EQ(a.executions, b.executions) << workers;
    ASSERT_EQ(a.failures.size(), b.failures.size()) << workers;
    for (std::size_t i = 0; i < a.failures.size(); ++i) {
      EXPECT_EQ(a.failures[i].case_seed, b.failures[i].case_seed) << workers;
      EXPECT_EQ(a.failures[i].invariant, b.failures[i].invariant) << workers;
      EXPECT_EQ(a.failures[i].detail, b.failures[i].detail) << workers;
      EXPECT_EQ(a.failures[i].repro, b.failures[i].repro) << workers;
    }
  }
}

// An injected violation must (a) be caught, (b) carry a repro line naming
// its case seed, (c) reproduce from that seed alone, and (d) vanish when
// the same case replays without the injection — proving failures are a
// property of the (seed, options) pair and nothing else.
TEST(FuzzInvariants, InjectedViolationReproducesFromSeedLine) {
  for (const std::string& invariant :
       {std::string("tree-capacity"), std::string("nic-bound"),
        std::string("sim-oracle"), std::string("treegen-oracle")}) {
    FuzzOptions inject;
    inject.workers = 1;
    inject.inject = invariant;
    FuzzReport seeded;
    std::uint64_t failing_case = 0;
    for (std::uint64_t i = 0; i < 64 && failing_case == 0; ++i) {
      FuzzReport r;
      run_case(case_seed(kCorpusSeed, i), inject, &r);
      for (const auto& f : r.failures) {
        if (f.invariant == invariant) {
          failing_case = f.case_seed;
          seeded = r;
          break;
        }
      }
    }
    ASSERT_NE(failing_case, 0u) << invariant << " never fired in 64 cases";

    // (b) the repro line names the seed in replayable form.
    bool repro_named = false;
    for (const auto& f : seeded.failures) {
      repro_named = repro_named ||
                    f.repro.find("blink_fuzz --case 0x") != std::string::npos;
    }
    EXPECT_TRUE(repro_named);

    // (c) replaying just that case with the same options fires again.
    FuzzReport replay;
    run_case(failing_case, inject, &replay);
    bool reproduced = false;
    for (const auto& f : replay.failures) {
      reproduced = reproduced || f.invariant == invariant;
    }
    EXPECT_TRUE(reproduced) << invariant << " did not reproduce from seed";

    // (d) without the injection the very same case is clean: the harness
    // detected the planted violation, not a real engine bug.
    FuzzOptions clean;
    clean.workers = 1;
    FuzzReport clean_replay;
    run_case(failing_case, clean, &clean_replay);
    EXPECT_TRUE(clean_replay.ok())
        << invariant << " case fails even without injection";
  }
}

TEST(FuzzInvariants, EveryInjectableInvariantIsAccepted) {
  // The advertised list is exactly what FuzzOptions::inject understands;
  // each one fires within a bounded corpus (keep this cheap: stop at first).
  ASSERT_FALSE(injectable_invariants().empty());
  for (const auto& name : injectable_invariants()) {
    FuzzOptions options;
    options.workers = 1;
    options.inject = name;
    bool fired = false;
    for (std::uint64_t i = 0; i < 96 && !fired; ++i) {
      FuzzReport r;
      run_case(case_seed(kCorpusSeed, i), options, &r);
      for (const auto& f : r.failures) fired = fired || f.invariant == name;
    }
    EXPECT_TRUE(fired) << "--inject " << name << " never fired in 96 cases";
  }
}

// --- induced sub-allocations of zoo shapes (satellite) -----------------------

TEST(FuzzInvariants, InducedZooSubsetsStayValidAndCompile) {
  using topo::induced_topology;
  Rng rng(3);

  // A sparse random mesh: inducing a subset can disconnect the NVLink
  // fabric; the result must still validate and lower via the PCIe fallback.
  topo::zoo::RandomTopologyParams params;
  params.num_gpus = 8;
  params.link_density = 0.0;  // bare spanning tree — subsets often disconnect
  const topo::Topology sparse = topo::zoo::make_random_topology(params, rng);
  const std::vector<int> scattered = {0, 3, 6};
  const topo::Topology induced_sparse = induced_topology(sparse, scattered);
  ASSERT_TRUE(induced_sparse.validate());
  EXPECT_EQ(induced_sparse.num_gpus, 3);
  {
    CommunicatorOptions copts;
    copts.planner_threads = 1;
    Communicator comm(induced_sparse, copts);
    EXPECT_GT(comm.broadcast(4.0e6, 0).seconds, 0.0);
    EXPECT_GT(comm.all_reduce(4.0e6).seconds, 0.0);
  }

  // An NVSwitch box keeps the crossbar for any subset.
  const topo::Topology box = topo::zoo::make_nvswitch_box(8);
  const topo::Topology induced_box = induced_topology(box, scattered);
  ASSERT_TRUE(induced_box.validate());
  EXPECT_TRUE(induced_box.has_nvswitch);
  {
    CommunicatorOptions copts;
    copts.planner_threads = 1;
    Communicator comm(induced_box, copts);
    EXPECT_GT(comm.all_reduce(4.0e6).seconds, 0.0);
  }

  // A PCIe-only host stays PCIe-only and still lowers.
  const topo::Topology pcie = topo::zoo::make_pcie_only_host(6);
  const std::vector<int> pair = {1, 4};  // different PLX, different socket
  const topo::Topology induced_pcie = induced_topology(pcie, pair);
  ASSERT_TRUE(induced_pcie.validate());
  EXPECT_FALSE(induced_pcie.nvlink_connected());
  {
    CommunicatorOptions copts;
    copts.planner_threads = 1;
    Communicator comm(induced_pcie, copts);
    EXPECT_GT(comm.broadcast(4.0e6, 0).seconds, 0.0);
  }

  // Dense random meshes: every 2-GPU induced pair of a clique keeps its lane.
  params.link_density = 1.0;
  const topo::Topology dense = topo::zoo::make_random_topology(params, rng);
  const topo::Topology induced_dense = induced_topology(dense, pair);
  ASSERT_TRUE(induced_dense.validate());
  EXPECT_TRUE(induced_dense.nvlink_connected());
}

}  // namespace
}  // namespace blink::fuzz
