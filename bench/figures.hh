/**
 * @file
 * The figure registry: each paper table/figure, ablation and extension
 * is a Figure that declares the sweep cells it needs, renders its
 * tables from the finished rows and states its paper-shape claims.
 *
 * runFigures() simulates each distinct (workload, insts, CoreParams,
 * VpConfig) cell of a selection once, compared by value and never by
 * name, as rectangular grids through sim::runSweep. A figure's cells
 * run on sim::baselineCore() unless it lists other cores. Each figure
 * then gets its own rows, in its own core, workload and config order
 * and names, so it prints the same bytes whatever runs beside it.
 */

#ifndef DLVP_BENCH_FIGURES_HH
#define DLVP_BENCH_FIGURES_HH

#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "common/logging.hh"
#include "sim/addr_pred_driver.hh"
#include "sim/configs.hh"
#include "sim/report.hh"
#include "sim/sweep.hh"
#include "trace/workloads.hh"

namespace dlvp::bench
{

/** Instructions per workload at full size. */
inline constexpr std::size_t kBenchInsts = 300000;

/** A paper-shape check, printed as "<text>? yes" or "<text>? NO". */
struct Claim
{
    std::string text;
    /** False for a claim this reproduction misses at full size, for
     *  @c reason (EXPERIMENTS.md). */
    bool expectHolds = true;
    std::string reason = {};
};

/** A figure's rows; Verdicts are its claims' states, in order. */
using Rows = sim::SweepResult;
using Verdicts = std::vector<bool>;

/** The baseline (sim::baselineVp()) and every config on every workload
 *  (empty = the registered suite), on every core. No configs = no sweep. */
struct Cells
{
    std::vector<std::string> workloads = {};
    std::size_t insts = kBenchInsts;
    std::vector<sim::SweepConfig> configs = {};
    std::vector<core::CoreParams> cores = {sim::baselineCore()};
};

struct Figure
{
    std::string name; ///< e.g. "fig06_comparison"
    Cells cells = {};
    std::string claimsPrefix = {}; ///< printed before the claims line
    std::vector<Claim> claims = {};
    /** Prints the figure from its rows and sets the claims' verdicts. */
    std::function<void(const Rows &, std::ostream &, Verdicts &)> render{};
};

/** Every figure, in print order. Sizes are fractions of @p insts, so
 *  kBenchInsts reproduces the published tables; a test may pass less. */
std::vector<Figure> registry(std::size_t insts = kBenchInsts);

/** The distinct cells of @p figures: one grid per set of workloads that
 *  need the same configs at the same insts on the same core. A config
 *  takes the name of the first figure that asks for its value. */
std::vector<sim::SweepSpec>
planGrids(const std::vector<const Figure *> &figures);

struct FigureRun
{
    const Figure *figure = nullptr;
    std::string text; ///< what it prints, claims included
    Rows rows;        ///< its cells, core-major, in its order and names
    Verdicts holds;
};

struct FiguresRun
{
    std::vector<FigureRun> figures;
    std::size_t cells = 0; ///< distinct cells, each simulated once
};

/** Simulate the cells of @p figures, then render each, in order. */
FiguresRun runFigures(const std::vector<const Figure *> &figures);

/** The "dlvp-figures-v1" report: each figure's rows as a "dlvp-sweep-v1"
 *  object under "sweep", and every claim with its verdict. */
void writeFiguresJson(std::ostream &os, const FiguresRun &run);

/** printf-style formatting, for renderers. */
using detail::format;

/** Arithmetic mean of @p f over every row. */
inline double
meanOf(const Rows &rows,
       const std::function<double(const sim::SweepRow &)> &f)
{
    std::vector<double> v;
    for (const auto &r : rows.rows)
        v.push_back(f(r));
    return sim::amean(v);
}

/** Arithmetic-mean coverage of config @p idx over every row. */
inline double
meanCoverage(const Rows &rows, std::size_t idx)
{
    return meanOf(rows, [idx](const sim::SweepRow &r) {
        return r.results[idx].coverage();
    });
}

/** Add one standalone predictor run into a suite aggregate. */
inline void
accumulate(sim::AddrPredResult &total, const sim::AddrPredResult &r)
{
    total.loads += r.loads;
    total.predicted += r.predicted;
    total.correct += r.correct;
}

} // namespace dlvp::bench

#endif // DLVP_BENCH_FIGURES_HH
