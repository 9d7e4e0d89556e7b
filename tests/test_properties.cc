/**
 * @file
 * Parameterized property tests: invariants that must hold across
 * configuration sweeps (predictor sizes, history lengths, scheme ×
 * workload matrices).
 */

#include <gtest/gtest.h>

#include "pred/pap.hh"
#include "sim/addr_pred_driver.hh"
#include "sim/configs.hh"
#include "sim/simulator.hh"
#include "trace/profilers.hh"
#include "trace/workloads.hh"

namespace
{

using namespace dlvp;

// ---------------------------------------------------------------
// PAP invariants across table/history geometries.
// ---------------------------------------------------------------

class PapGeometry
    : public ::testing::TestWithParam<std::pair<unsigned, unsigned>>
{
};

TEST_P(PapGeometry, AccuracyStaysHighAtAnyGeometry)
{
    // Coverage varies with capacity and context width; the FPC
    // confidence keeps *accuracy* high regardless — the design's key
    // invariant.
    const auto [table_bits, hist_bits] = GetParam();
    pred::PapParams pp;
    pp.tableBits = table_bits;
    pp.histBits = hist_bits;
    const auto t = trace::WorkloadRegistry::build("crafty", 60000);
    const auto r = sim::drivePap(t, pp);
    if (r.predicted > 200) {
        EXPECT_GT(r.accuracy(), 0.95)
            << "table " << table_bits << " hist " << hist_bits;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, PapGeometry,
    ::testing::Values(std::make_pair(6u, 8u), std::make_pair(8u, 8u),
                      std::make_pair(10u, 4u),
                      std::make_pair(10u, 16u),
                      std::make_pair(12u, 16u),
                      std::make_pair(10u, 32u)));

TEST(PapGeometry, CoverageGrowsWithCapacity)
{
    // A capacity-thrashed APT covers less than a roomy one on a
    // context-rich workload (the gobmk effect).
    const auto t = trace::WorkloadRegistry::build("gobmk", 80000);
    pred::PapParams small;
    small.tableBits = 7;
    pred::PapParams big;
    big.tableBits = 12;
    const auto rs = sim::drivePap(t, small);
    const auto rb = sim::drivePap(t, big);
    EXPECT_GT(rb.coverage(), rs.coverage());
}

TEST(PapGeometry, Policy2BeatsPolicy1UnderPressure)
{
    // §3.1.2: "Policy-2 is superior since entries with high
    // confidence can survive eviction."
    const auto t = trace::WorkloadRegistry::build("gobmk", 80000);
    pred::PapParams p1;
    p1.tableBits = 8; // force pressure
    p1.allocPolicy = pred::PapAllocPolicy::Policy1;
    pred::PapParams p2 = p1;
    p2.allocPolicy = pred::PapAllocPolicy::Policy2;
    const auto r1 = sim::drivePap(t, p1);
    const auto r2 = sim::drivePap(t, p2);
    EXPECT_GE(r2.predicted, r1.predicted)
        << "Policy-2 must not cover less under aliasing pressure";
}

// ---------------------------------------------------------------
// Scheme x workload invariants.
// ---------------------------------------------------------------

struct SchemeCase
{
    const char *workload;
    const char *scheme;
};

// Without a printer gtest lists the parameter as its raw bytes, i.e.
// the two string addresses, and ctest's discovered test names would
// then change with every build.
void
PrintTo(const SchemeCase &c, std::ostream *os)
{
    *os << c.workload << '/' << c.scheme;
}

class SchemeMatrix : public ::testing::TestWithParam<SchemeCase>
{
};

TEST_P(SchemeMatrix, InvariantsHold)
{
    const auto &[workload, scheme] = GetParam();
    core::VpConfig vp;
    ASSERT_TRUE(sim::configByName(scheme, vp)) << scheme;

    sim::Simulator s(sim::baselineCore(), 40000);
    const auto r = s.run(workload, vp);

    // Universal invariants. The warmup boundary lands on a commit-
    // width granule, and instructions already in flight at the
    // boundary commit without re-fetching.
    EXPECT_GE(r.committedInsts, 30000u - 8);
    EXPECT_LE(r.committedInsts, 30000u);
    EXPECT_LE(r.vpCorrectLoads, r.vpPredictedLoads);
    EXPECT_LE(r.vpPredictedLoads, r.committedLoads);
    EXPECT_LE(r.probeHits, r.probes);
    EXPECT_GE(r.fetchedInsts + 400, r.committedInsts);
    if (r.vpPredictedLoads > 500) {
        EXPECT_GT(r.accuracy(), 0.90)
            << "confidence mechanisms keep accuracy high";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SchemeMatrix,
    ::testing::Values(SchemeCase{"perlbmk", "dlvp"},
                      SchemeCase{"perlbmk", "vtage"},
                      SchemeCase{"mcf", "dlvp"},
                      SchemeCase{"mcf", "tournament"},
                      SchemeCase{"nat", "vtage"},
                      SchemeCase{"nat", "dvtage"},
                      SchemeCase{"aifirf", "dlvp"},
                      SchemeCase{"aifirf", "cap"},
                      SchemeCase{"bzip2", "dlvp"},
                      SchemeCase{"gobmk", "vtage"},
                      SchemeCase{"eon", "dlvp"},
                      SchemeCase{"viterb", "dvtage"}),
    [](const ::testing::TestParamInfo<SchemeCase> &tpi) {
        return std::string(tpi.param.workload) + "_" +
               tpi.param.scheme;
    });

// ---------------------------------------------------------------
// Recovery-mode dominance: oracle replay never loses to flush.
// ---------------------------------------------------------------

class ReplayDominance : public ::testing::TestWithParam<const char *>
{
};

TEST_P(ReplayDominance, ReplayNeverSlower)
{
    sim::Simulator s(sim::baselineCore(), 40000);
    auto flush = sim::dlvpConfig();
    auto replay = flush;
    replay.recovery = core::RecoveryMode::OracleReplay;
    const auto f = s.run(GetParam(), flush);
    const auto r = s.run(GetParam(), replay);
    EXPECT_LE(r.cycles, f.cycles + f.cycles / 100)
        << "oracle replay only removes flush costs";
    EXPECT_EQ(r.vpFlushes, 0u);
}

INSTANTIATE_TEST_SUITE_P(Workloads, ReplayDominance,
                         ::testing::Values("bzip2", "nat", "mcf",
                                           "perlbmk"));

// ---------------------------------------------------------------
// Warmup monotonicity: measured cycles shrink as warmup grows.
// ---------------------------------------------------------------

TEST(WarmupProperty, MeasuredRegionShrinks)
{
    const auto t = trace::WorkloadRegistry::build("crafty", 40000);
    core::OoOCore a({}, sim::baselineVp(), t);
    core::OoOCore b({}, sim::baselineVp(), t);
    const auto full = a.run(0);
    const auto tail = b.run(20000);
    EXPECT_LT(tail.cycles, full.cycles);
    EXPECT_GE(tail.committedInsts, 20000u - 8);
    EXPECT_LE(tail.committedInsts, 20000u);
}

// ---------------------------------------------------------------
// Figure 2 invariant on every suite member: addresses repeating >= 8
// should track values repeating >= 8 within a generous band.
// ---------------------------------------------------------------

class Fig2Band : public ::testing::TestWithParam<std::string>
{
};

TEST_P(Fig2Band, AddressRepetitionSubstantial)
{
    const auto t = trace::WorkloadRegistry::build(GetParam(), 40000);
    const auto rep = trace::profileRepeatability(t);
    // Every workload re-reads *some* addresses; the suite average is
    // what Figure 2 reports, but no member should be pathological.
    EXPECT_GE(rep.fractionValueAtLeast[3] + 0.5,
              rep.fractionAddrAtLeast[3])
        << "value and address repetition stay in the same regime "
           "(DSP-style workloads legitimately skew toward addresses)";
}

INSTANTIATE_TEST_SUITE_P(
    Sample, Fig2Band,
    ::testing::Values("perlbmk", "mcf", "crafty", "nat", "aifirf",
                      "bzip2", "eon", "routelookup"),
    [](const ::testing::TestParamInfo<std::string> &tpi) {
        return tpi.param;
    });

} // namespace
