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
#include "common/fields.hh"

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

TEST(Figures, WidthSensitivitySharesItsPaperCoreCells)
{
    // ext_width_sensitivity runs baseline and DLVP on six workloads on
    // three cores. Its 4-wide core is sim::baselineCore(), where the
    // ablations already run those 12 cells at the same insts.
    const std::vector<Figure> figs = registry(20000);
    std::vector<const Figure *> three;
    for (const char *name :
         {"abl_pap_design", "abl_replay_tradeoff", "ext_predictor_zoo"})
        three.push_back(&*std::find_if(figs.begin(), figs.end(),
                                       [&](auto &f) { return f.name == name; }));
    ASSERT_EQ(figs.back().name, "ext_width_sensitivity");
    std::vector<const Figure *> four = three;
    four.push_back(&figs.back());

    const FiguresRun alone = runFigures({&figs.back()});
    const FiguresRun together = runFigures(four);
    EXPECT_EQ(alone.cells, 36u);
    EXPECT_EQ(together.cells, runFigures(three).cells + 24);
    EXPECT_EQ(together.figures.back().text, alone.figures[0].text);
    EXPECT_EQ(alone.figures[0].rows.failedJobs(), 0u);
}

/** @p base once per field of its field list, with that field perturbed. */
template <class T>
std::vector<T>
oneFieldOff(T base)
{
    std::vector<T> out;
    common::forEachField(base, [&](const std::string &, auto &leaf) {
        const auto saved = leaf;
        common::perturb(leaf);
        out.push_back(base);
        leaf = saved;
    });
    return out;
}

TEST(Figures, ConfigsDifferingInOneFieldNeverShareACell)
{
    Figure f{.name = "mutations", .cells = {.workloads = {"mcf"}}};
    f.cells.configs.push_back({"base", sim::dlvpConfig()});
    for (const core::VpConfig &vp : oneFieldOff(sim::dlvpConfig()))
        f.cells.configs.push_back({"mutated", vp});
    for (const core::CoreParams &core : oneFieldOff(sim::baselineCore()))
        f.cells.cores.push_back(core);
    // Equal values share a cell whatever their names: a renamed copy
    // of the base adds no column, a second baseline core no grid.
    f.cells.configs.push_back({"base again", sim::dlvpConfig()});
    f.cells.cores.push_back(sim::baselineCore());

    const auto grids = planGrids({&f});
    ASSERT_EQ(grids.size(), f.cells.cores.size() - 1);
    for (std::size_t g = 0; g < grids.size(); ++g) {
        EXPECT_EQ(grids[g].core, f.cells.cores[g]);
        EXPECT_EQ(grids[g].workloads, std::vector<std::string>{"mcf"});
        EXPECT_EQ(grids[g].configs.size(), f.cells.configs.size() - 1);
        EXPECT_EQ(grids[g].configs.front().name, "base");
    }
}

} // namespace
