/**
 * @file
 * `grid`: the full-detail, per-cell sweep — every registered workload
 * under {baseline, dlvp, vtage, balcvp, hermes} at 60k micro-ops, one
 * sim::runSweep pass at a time (jobs = 1, batch = false).
 *
 * Set-up builds every trace through a TraceStore. runSweep evicts a
 * workload's trace once its last cell finishes, so each pass rebuilds
 * the traces it uses; that cost lands in ops_per_s and
 * sim.sweep_overhead_ratio, never in mips, which counts cell time.
 *
 * A host-gauge slice runs after every cell (the sweep's progress hook,
 * on the sweep's worker thread), so each pass's times are divided by
 * the host slowdown measured in that same pass (gauge.hh).
 */

#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hh"
#include "bench_math.hh"
#include "common/rng.hh"
#include "gauge.hh"
#include "serve/json.hh"
#include "sim/configs.hh"
#include "sim/sweep.hh"
#include "trace/workloads.hh"

namespace perfbench
{

namespace
{

using dlvp::core::CoreStats;

constexpr std::size_t kGridInsts = 60000;

/** Column names: the baseline first, then the spec configs. */
const std::vector<std::string> &
columnNames()
{
    static const std::vector<std::string> names = {
        "baseline", "dlvp", "vtage", "balcvp", "hermes"};
    return names;
}

dlvp::sim::SweepSpec
gridSpec(std::uint64_t seed, dlvp::sim::TraceStore *store)
{
    const std::uint64_t rng =
        dlvp::deriveSeed("perfbench-grid", std::to_string(seed)) | 1;
    dlvp::sim::SweepSpec spec;
    spec.insts = kGridInsts;
    spec.core = dlvp::sim::baselineCore();
    spec.baseline = dlvp::sim::baselineVp();
    spec.baseline.rngSeed = rng;
    for (std::size_t c = 1; c < columnNames().size(); ++c) {
        dlvp::core::VpConfig vp;
        if (!dlvp::sim::configByName(columnNames()[c], vp))
            throw std::runtime_error("unknown config " +
                                     columnNames()[c]);
        vp.rngSeed = rng;
        spec.configs.push_back({columnNames()[c], vp});
    }
    spec.jobs = 1;
    spec.batch = false;
    spec.store = store;
    return spec;
}

/** Per-column accumulation over traced passes. */
struct Column
{
    MipsSum mips;
    CoreStats sum;
    std::uint64_t cyclesSkipped = 0;
};

/** One cell of a pass; cellsOf() lists them row-major. */
struct Cell
{
    const CoreStats *stats;
    const dlvp::sim::RunPerf *perf;
    const dlvp::sim::JobOutcome *outcome;
    std::size_t column;
    const std::string *workload;
};

std::vector<Cell>
cellsOf(const dlvp::sim::SweepResult &res)
{
    std::vector<Cell> cells;
    for (const auto &row : res.rows) {
        cells.push_back({&row.baseline, &row.baselinePerf,
                         &row.baselineOutcome, 0, &row.workload});
        for (std::size_t c = 0; c < row.results.size(); ++c)
            cells.push_back({&row.results[c], &row.perf[c],
                             &row.outcomes[c], c + 1, &row.workload});
    }
    return cells;
}

} // namespace

void
gridWorkload(const RunContext &ctx, Checks &checks, Report &report)
{
    const std::vector<std::string> workloads =
        dlvp::trace::WorkloadRegistry::names();
    HostGauge gauge;

    // ---- set-up: every trace through a TraceStore ----------------
    dlvp::sim::TraceStore store;
    std::vector<double> setupS;
    for (unsigned rep = 0; rep < ctx.setupReps; ++rep) {
        store.clear();
        const auto t0 = Clock::now();
        for (const std::string &w : workloads) {
            const auto tr = store.acquire(w, kGridInsts);
            if (rep == 0)
                checks.expect(tr->size() == kGridInsts,
                              "grid trace " + w + " has the wrong size");
        }
        setupS.push_back(secondsSince(t0));
    }

    // ---- closed loop: runSweep passes ----------------------------
    // runSweep evicts each trace after its last cell, so every pass
    // but the first would rebuild them. Start empty so every pass
    // does the same work.
    store.clear();
    dlvp::sim::SweepSpec spec = gridSpec(ctx.seed, &store);
    // Called on the sweep's only worker thread after each cell; the
    // main thread reads the gauge after runSweep has joined it.
    spec.progress = [&gauge](std::size_t, std::size_t) { gauge.sample(); };
    std::vector<std::uint64_t> firstDigests;
    std::vector<double> passCellsPerS, cellMs, rawCellMs, slowdowns;
    // Each cell's normalised wall time in every pass, cell-major.
    std::vector<std::vector<double>> cellWalls;
    std::vector<double> untracedPassS, tracedPassS;
    std::vector<Column> cols(columnNames().size());
    double passWallSum = 0.0, cellWallSum = 0.0;
    MipsSum raw;

    const auto t0 = Clock::now();
    for (std::size_t pass = 0;
         pass < minOps(ctx) || secondsSince(t0) < ctx.seconds; ++pass) {
        // In the traced run, odd passes aggregate the layer counters
        // and even passes do not, so their difference is the tracing
        // overhead.
        const bool tracePass = ctx.traced && pass % 2 == 1;
        const std::size_t g0 = gauge.count();
        const double gaugeS0 = gauge.totalSeconds();
        const auto p0 = Clock::now();
        const dlvp::sim::SweepResult res = dlvp::sim::runSweep(spec);
        const double passS =
            secondsSince(p0) - (gauge.totalSeconds() - gaugeS0);
        const double slow = gauge.slowdown(g0, gauge.count());
        slowdowns.push_back(slow);

        MipsSum pm;
        const std::vector<Cell> cells = cellsOf(res);
        if (pass == 0) {
            firstDigests.assign(cells.size(), 0);
            cellWalls.resize(cells.size());
        }
        for (std::size_t i = 0; i < cells.size(); ++i) {
            const Cell &cell = cells[i];
            const std::string where = "grid " + *cell.workload + "/" +
                                      columnNames()[cell.column];
            checks.attempt();
            if (!cell.outcome->ok()) {
                checks.fail(where + ": " + cell.outcome->error);
                continue;
            }
            for (const std::string &v :
                 conservationViolations(*cell.stats))
                checks.fail(where + ": " + v);
            const std::uint64_t d = statsDigest(*cell.stats);
            if (pass == 0)
                firstDigests[i] = d;
            else if (firstDigests[i] != d)
                checks.fail(where + ": CoreStats digest changed "
                                    "between passes");
            const double ms = cell.perf->wallMs / slow;
            pm.add(kGridInsts, ms / 1e3);
            raw.add(kGridInsts, cell.perf->wallMs / 1e3);
            cellMs.push_back(ms);
            rawCellMs.push_back(cell.perf->wallMs);
            cellWalls[i].push_back(ms);
            if (tracePass) {
                Column &col = cols[cell.column];
                col.mips.add(kGridInsts, ms / 1e3);
                col.sum.accumulate(*cell.stats);
                col.cyclesSkipped += cell.perf->cyclesSkipped;
            }
        }
        passCellsPerS.push_back(ratio(cells.size(), passS / slow));
        if (tracePass) {
            passWallSum += passS / slow;
            cellWallSum += pm.seconds();
            tracedPassS.push_back(passS);
        } else {
            untracedPassS.push_back(passS);
        }
    }

    std::uint64_t gridDigest = 0xcbf29ce484222325ULL;
    for (const std::uint64_t d : firstDigests)
        gridDigest = (gridDigest ^ d) * 0x100000001b3ULL;
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(gridDigest));
    report.note("grid_digest", dlvp::serve::jsonQuote(hex));
    report.noteNumber("grid_passes",
                      static_cast<double>(passCellsPerS.size()));
    report.noteNumber("grid_cells", static_cast<double>(cellMs.size()));
    report.noteNumber("grid_gauge_slices",
                      static_cast<double>(gauge.count()));
    // Slices taken right after an I/O- or allocation-heavy set-up step
    // read slow for reasons of their own, so set-up is divided by the
    // closed loop's slowdown: the host's stretches outlast a run.
    const double setupSlowdown = median(slowdowns);
    report.noteNumber("grid_host_slowdown", setupSlowdown);
    report.noteNumber("grid_raw_setup_s", median(setupS));
    report.noteNumber("grid_raw_mips", raw.mips());
    report.noteNumber("grid_raw_op_p50_ms", median(rawCellMs));

    // Aggregate MIPS over each cell's median pass: a burst of host
    // noise slows some cells in one pass, not the same cells in most.
    MipsSum medianCells;
    for (const std::vector<double> &w : cellWalls)
        medianCells.add(kGridInsts, median(w) / 1e3);
    if (!ctx.traced) {
        report.metric("setup_s", median(setupS) / setupSlowdown, "s");
        report.metric("mips", medianCells.mips(), "Muops/s");
        report.metric("ops_per_s", median(passCellsPerS), "1/s");
        report.metric("op_p50_ms", median(cellMs), "ms");
        report.metric("peak_rss_mb", peakRssMb(), "MB");
        return;
    }

    // ---- per-layer metrics from the traced passes ----------------
    report.metric("trace.build_ms", 1e3 * median(setupS) / setupSlowdown,
                  "ms");
    for (std::size_t c = 0; c < cols.size(); ++c)
        report.metric("core.mips." + columnNames()[c],
                      cols[c].mips.mips(), "Muops/s");
    for (std::size_t c = 0; c < cols.size(); ++c)
        report.metric("core.ipc." + columnNames()[c],
                      cols[c].sum.ipc(), "insts/cycle");
    CoreStats all;
    std::uint64_t skipped = 0;
    for (const Column &col : cols) {
        all.accumulate(col.sum);
        skipped += col.cyclesSkipped;
    }
    report.metric("core.cycles_skipped_ratio",
                  ratio(skipped, all.cycles), "ratio");
    report.metric("core.fetched_per_committed",
                  ratio(all.fetchedInsts, all.committedInsts), "ratio");
    report.metric("core.flushes_pki",
                  perKilo(all.vpFlushes + all.branchFlushes +
                              all.memOrderFlushes,
                          all.committedInsts),
                  "1/kinst");
    const CoreStats &dl = cols[1].sum;
    report.metric("core.probe_hit_ratio", ratio(dl.probeHits, dl.probes),
                  "ratio");
    report.metric("core.probe_late_ratio",
                  ratio(dl.probeLate, dl.probes), "ratio");
    report.metric("core.paq_drop_ratio",
                  ratio(dl.paqDrops, dl.paqAllocs), "ratio");
    for (std::size_t c = 1; c < cols.size(); ++c)
        report.metric("pred.tax." + columnNames()[c],
                      ratio(cols[c].mips.seconds(),
                            cols[0].mips.seconds()),
                      "ratio");
    for (std::size_t c = 1; c < cols.size(); ++c)
        report.metric("pred.coverage." + columnNames()[c],
                      cols[c].sum.coverage(), "ratio");
    for (std::size_t c = 1; c < cols.size(); ++c)
        report.metric("pred.accuracy." + columnNames()[c],
                      cols[c].sum.accuracy(), "ratio");
    report.metric("pred.addr_accuracy",
                  ratio(dl.addrPredCorrect,
                        dl.addrPredCorrect + dl.addrPredWrong),
                  "ratio");
    report.metric("pred.lscd_blocked_pki",
                  perKilo(dl.lscdBlocked, dl.committedInsts), "1/kinst");
    const CoreStats &base = cols[0].sum;
    report.metric("mem.l1d_mpki",
                  perKilo(base.l1dMisses, base.committedInsts), "1/kinst");
    report.metric("mem.l2_apki",
                  perKilo(base.l2Accesses, base.committedInsts),
                  "1/kinst");
    report.metric("mem.tlb_mpki",
                  perKilo(base.tlbMisses, base.committedInsts), "1/kinst");
    report.metric("sim.sweep_overhead_ratio",
                  ratio(passWallSum, cellWallSum), "ratio");
    report.metric("bench.trace_overhead_pct.grid",
                  100.0 * (ratio(median(tracedPassS),
                                 median(untracedPassS)) -
                           1.0),
                  "%");
}

} // namespace perfbench
