/**
 * @file
 * Figure-registry tests: every figure renders at a reduced size with
 * its claims in their recorded state, figures that share cells run
 * them once and print what they print alone, and cells are matched by
 * value, never by name.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "bench/figures.hh"

namespace
{

using namespace dlvp;
using namespace dlvp::bench;

TEST(Figures, EveryFigureRendersWithItsClaimsAtReducedSize)
{
    // Claims whose state at 30k uops differs from full size: the VTAGE
    // flavors still order static >= dynamic >= vanilla there.
    const std::vector<std::string> full_size_only = {
        "fig07_vtage_flavors: static >= dynamic >= vanilla (loads)"};
    const std::vector<Figure> figs = registry(30000);
    std::vector<const Figure *> all;
    for (const Figure &f : figs)
        all.push_back(&f);
    ASSERT_EQ(all.size(), 18u);
    const FiguresRun run = runFigures(all);
    for (const FigureRun &fr : run.figures) {
        const Figure &f = *fr.figure;
        EXPECT_FALSE(fr.text.empty()) << f.name;
        EXPECT_EQ(fr.rows.failedJobs(), 0u) << f.name;
        EXPECT_EQ(fr.rows.rows.empty(), f.cells.configs.empty()) << f.name;
        ASSERT_EQ(fr.holds.size(), f.claims.size()) << f.name;
        for (std::size_t i = 0; i < f.claims.size(); ++i) {
            const std::string id = f.name + ": " + f.claims[i].text;
            EXPECT_EQ(f.claims[i].expectHolds, f.claims[i].reason.empty());
            if (std::count(full_size_only.begin(), full_size_only.end(),
                           id) == 0) {
                EXPECT_EQ(fr.holds[i], f.claims[i].expectHolds) << id;
            }
        }
    }
}

TEST(Figures, SharedCellsRunOnceAndPrintAsAlone)
{
    // fig05 runs 10 workloads x (baseline, DLVP-nopf, DLVP+pf), fig09
    // 5 x (baseline, VTAGE, DLVP); DLVP+pf is dlvpConfig(), so bzip2,
    // pdfjs and soplex share their baseline and DLVP cells.
    const std::vector<Figure> figs = registry(20000);
    const std::vector<const Figure *> both = {&figs[3], &figs[7]};
    ASSERT_EQ(both[0]->name, "fig05_prefetch");
    ASSERT_EQ(both[1]->name, "fig09_selected");

    sim::TraceStore &store = sim::TraceStore::global();
    const std::size_t builds = store.buildCount();
    const FiguresRun together = runFigures(both);
    EXPECT_EQ(together.cells, 30u + 15u - 6u);
    // One trace per distinct workload: fig05's 10, gcc and avmshell.
    EXPECT_EQ(store.buildCount() - builds, 12u);

    for (std::size_t i = 0; i < both.size(); ++i) {
        const FiguresRun alone = runFigures({both[i]});
        EXPECT_EQ(together.figures[i].text, alone.figures[0].text);
        const auto &x = together.figures[i].rows.rows;
        const auto &y = alone.figures[0].rows.rows;
        ASSERT_EQ(x.size(), y.size());
        for (std::size_t r = 0; r < x.size(); ++r) {
            EXPECT_EQ(x[r].baseline, y[r].baseline) << x[r].workload;
            EXPECT_EQ(x[r].results, y[r].results) << x[r].workload;
        }
    }
}

TEST(Figures, ConfigsDifferingInOneFieldNeverShareACell)
{
    using Vp = core::VpConfig;
    const std::vector<void (*)(Vp &)> mutations = {
        [](Vp &v) { v.pap.tableBits = 11; },
        [](Vp &v) { v.pap.confProbs.back() = 0.125; },
        [](Vp &v) { v.pap.allocPolicy = pred::PapAllocPolicy::Policy1; },
        [](Vp &v) { v.cap.confThreshold = 9; },
        [](Vp &v) { v.strideAp.confThreshold = 5; },
        [](Vp &v) { v.vtage.histLengths.push_back(21); },
        [](Vp &v) { v.vtage.dynFilterThreshold = 0.9; },
        [](Vp &v) { v.dvtage.lvtBits = 9; },
        [](Vp &v) { v.balcvp.eqThreshold = 5; },
        [](Vp &v) { v.hermes.trainingTheta = 15; },
        [](Vp &v) { v.hermes.lvp.confProbs.front() = 0.5; },
        [](Vp &v) { v.tournamentPartition = true; },
        [](Vp &v) { v.accel = "vtage"; },
        [](Vp &v) { v.recovery = core::RecoveryMode::OracleReplay; },
        [](Vp &v) { v.vpeDesign = core::VpeDesign::PortArbitration; },
        [](Vp &v) { v.dlvpPrefetch = false; },
        [](Vp &v) { v.useLscd = false; },
        [](Vp &v) { v.paqLifetime = 4; },
        [](Vp &v) { v.pvtSize = 64; },
        [](Vp &v) { v.rngSeed = 7; },
    };
    Figure f{.name = "mutations", .cells = {.workloads = {"mcf"}}};
    f.cells.configs.push_back({"base", sim::dlvpConfig()});
    for (const auto mutate : mutations) {
        f.cells.configs.push_back({"mutated", sim::dlvpConfig()});
        mutate(f.cells.configs.back().vp);
    }
    // Equal values share a cell whatever their names: a renamed copy
    // of the base adds no column.
    f.cells.configs.push_back({"base again", sim::dlvpConfig()});

    const auto grids = planGrids({&f});
    ASSERT_EQ(grids.size(), 1u);
    EXPECT_EQ(grids[0].workloads, std::vector<std::string>{"mcf"});
    EXPECT_EQ(grids[0].configs.size(), mutations.size() + 1);
    EXPECT_EQ(grids[0].configs.front().name, "base");
}

} // namespace
