/**
 * @file
 * Tests for the simulation façade: configs, the standalone address-
 * predictor drivers (Figure 4 machinery), the report printer, and the
 * headline cross-predictor claims on real workloads.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/run_error.hh"
#include "sim/addr_pred_driver.hh"
#include "sim/configs.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"
#include "trace/workloads.hh"

namespace
{

using namespace dlvp;
using namespace dlvp::sim;

TEST(Configs, SchemesAreDistinct)
{
    EXPECT_EQ(baselineVp().accel, "none");
    EXPECT_EQ(dlvpConfig().accel, "pap-dlvp");
    EXPECT_EQ(capConfig().accel, "cap-dlvp");
    EXPECT_EQ(vtageConfig().accel, "vtage");
    EXPECT_EQ(tournamentConfig().accel, "tournament");
}

TEST(Configs, CapConfidenceParameterized)
{
    EXPECT_EQ(capConfig(3).cap.confThreshold, 3u);
    EXPECT_EQ(capConfig(64).cap.confThreshold, 64u);
    EXPECT_EQ(capConfig().cap.confThreshold, 24u)
        << "§5.2.3: confidence of 24 delivers CAP's best speedup";
}

TEST(Configs, VtageFlavors)
{
    const auto vanilla =
        vtageConfigWith(pred::VtageFilter::None, true);
    EXPECT_EQ(vanilla.vtage.filter, pred::VtageFilter::None);
    const auto all = vtageConfigWith(pred::VtageFilter::Static, false);
    EXPECT_FALSE(all.vtage.loadsOnly);
}

TEST(Configs, BaselineCoreMatchesTable4)
{
    const auto p = baselineCore();
    EXPECT_EQ(p.fetchWidth, 4u);
    EXPECT_EQ(p.issueWidth, 8u);
    EXPECT_EQ(p.lsLanes, 2u);
    EXPECT_EQ(p.robSize, 224u);
    EXPECT_EQ(p.iqSize, 97u);
    EXPECT_EQ(p.ldqSize, 72u);
    EXPECT_EQ(p.stqSize, 56u);
    EXPECT_EQ(p.numPhysRegs, 348u);
    EXPECT_EQ(p.memory.l1d.sizeBytes, 64u * 1024);
    EXPECT_EQ(p.memory.l2.sizeBytes, 512u * 1024);
    EXPECT_EQ(p.memory.l3.sizeBytes, 8u * 1024 * 1024);
    EXPECT_EQ(p.memory.memLatency, 200u);
    EXPECT_EQ(p.memory.tlb.entries, 512u);
}

TEST(Means, AmeanGeomean)
{
    EXPECT_DOUBLE_EQ(amean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(amean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
}

TEST(Report, TableRendersRowsAndColumns)
{
    Table t("demo");
    t.columns({"name", "value"});
    t.row({std::string("alpha"), 1.5});
    t.row({std::string("beta"), static_cast<long long>(7)});
    std::ostringstream os;
    t.print(os);
    const auto str = os.str();
    EXPECT_NE(str.find("demo"), std::string::npos);
    EXPECT_NE(str.find("alpha"), std::string::npos);
    EXPECT_NE(str.find("1.500"), std::string::npos);
    EXPECT_NE(str.find("7"), std::string::npos);
}

TEST(Report, PctFormatting)
{
    EXPECT_EQ(pct(1.048), "+4.8%");
    EXPECT_EQ(pct(0.95), "-5.0%");
}

TEST(Simulator, CachesTraces)
{
    Simulator s(baselineCore(), 5000);
    const auto &a = s.workload("perlbmk");
    const auto &b = s.workload("perlbmk");
    EXPECT_EQ(&a, &b) << "same object from the cache";
    s.evict("perlbmk");
    const auto &c = s.workload("perlbmk");
    EXPECT_EQ(c.size(), 5000u);
}

TEST(Simulator, SpeedupDefinition)
{
    core::CoreStats base, other;
    base.cycles = 1000;
    other.cycles = 800;
    EXPECT_DOUBLE_EQ(speedup(base, other), 1.25);
    // A 0-uop run is a caller's input, reported as a RunError.
    EXPECT_THROW(speedup(base, core::CoreStats{}), common::RunError);
}

// ---- Figure 4 machinery: standalone address prediction ----

TEST(AddrDriver, PapBeatsCapAtEqualConfidence)
{
    // §5.1: at confidence 8, PAP wins on both coverage and accuracy.
    // Check on a path-rich workload sample.
    double pap_cov = 0, pap_acc = 0, cap_cov = 0, cap_acc = 0;
    const char *names[] = {"mcf", "crafty", "perlbmk"};
    for (const auto *name : names) {
        const auto t = trace::WorkloadRegistry::build(name, 60000);
        const auto pap = drivePap(t);
        pred::CapParams cp;
        cp.confThreshold = 8;
        const auto cap = driveCap(t, cp);
        pap_cov += pap.coverage();
        pap_acc += pap.accuracy();
        cap_cov += cap.coverage();
        cap_acc += cap.accuracy();
    }
    EXPECT_GT(pap_cov, cap_cov)
        << "PAP coverage beats CAP at confidence 8";
    EXPECT_GT(pap_acc / 3, 0.97) << "PAP accuracy is high";
}

TEST(AddrDriver, CapAccuracyRisesWithConfidence)
{
    const auto t = trace::WorkloadRegistry::build("vpr", 60000);
    pred::CapParams lo;
    lo.confThreshold = 3;
    pred::CapParams hi;
    hi.confThreshold = 64;
    const auto rl = driveCap(t, lo);
    const auto rh = driveCap(t, hi);
    EXPECT_GE(rh.accuracy(), rl.accuracy());
    EXPECT_LE(rh.coverage(), rl.coverage())
        << "higher confidence costs coverage (Figure 4)";
}

TEST(AddrDriver, PapHighAccuracyOnSuite)
{
    // The paper's headline: >99% accuracy with confidence 8.
    std::uint64_t predicted = 0, correct = 0;
    const char *names[] = {"aifirf", "mcf", "crafty", "dromaeo"};
    for (const auto *name : names) {
        const auto t = trace::WorkloadRegistry::build(name, 60000);
        const auto r = drivePap(t);
        predicted += r.predicted;
        correct += r.correct;
    }
    ASSERT_GT(predicted, 0u);
    EXPECT_GT(static_cast<double>(correct) /
                  static_cast<double>(predicted),
              0.985);
}

TEST(Simulator, EndToEndSmoke)
{
    Simulator s(baselineCore(), 30000);
    const auto base = s.run("perlbmk", baselineVp());
    const auto dlvp = s.run("perlbmk", dlvpConfig());
    EXPECT_EQ(base.committedInsts, dlvp.committedInsts);
    EXPECT_GT(dlvp.coverage(), 0.1);
    EXPECT_GT(dlvp.accuracy(), 0.95);
    EXPECT_GT(speedup(base, dlvp), 0.9);
}

} // namespace
