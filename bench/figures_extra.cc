/** @file
 *  Registry entries beyond the paper's figures: ablations of §3's design
 *  choices, §5.2.4's future-work experiment, and extensions. */

#include <algorithm>
#include <tuple>

#include "bench/figures.hh"
#include "sim/simulator.hh"

namespace dlvp::bench
{

namespace
{

/** Ablations of §3's PAP/DLVP design choices: APT associativity, load-path
 *  history length and the FPC confidence vector standalone; Policy-1 vs
 *  Policy-2 allocation, PAQ lifetime N and way prediction in the core. */
Figure
ablPapDesign(std::size_t insts)
{
    auto policy1 = sim::dlvpConfig();
    policy1.pap.allocPolicy = pred::PapAllocPolicy::Policy1;
    auto n2 = sim::dlvpConfig();
    n2.paqLifetime = 2;
    auto n8 = sim::dlvpConfig();
    n8.paqLifetime = 8;
    auto noway = sim::dlvpConfig();
    noway.pap.wayPrediction = false;
    const std::vector<std::string> sample = {
        "mcf", "crafty", "perlbmk", "aifirf", "omnetpp", "bzip2"};
    return {.name = "abl_pap_design",
            .cells = {.workloads = sample,
                      .insts = insts / 2,
                      .configs = {{"DLVP (paper)", sim::dlvpConfig()},
                                  {"Policy-1 alloc", policy1},
                                  {"PAQ N=2", n2},
                                  {"PAQ N=8", n8},
                                  {"no way prediction", noway}}},
            .render = [sample, standalone_insts = insts / 3](
                          const Rows &rows, std::ostream &os, Verdicts &) {
        // ---- standalone sweeps ----
        auto sweep = [&](const pred::PapParams &pp) {
            sim::AddrPredResult total;
            for (const auto &w : sample)
                accumulate(total,
                           sim::drivePap(trace::WorkloadRegistry::build(
                                             w, standalone_insts),
                                         pp));
            return total;
        };

        sim::Table a("ablation: APT associativity (extension; the paper's "
                     "APT is direct-mapped)");
        a.columns({"assoc", "coverage", "accuracy"});
        for (const unsigned assoc : {1u, 2u, 4u}) {
            pred::PapParams pp;
            pp.assoc = assoc;
            const auto r = sweep(pp);
            a.row({static_cast<long long>(assoc), r.coverage(),
                   r.accuracy()});
        }
        a.print(os);

        sim::Table h("ablation: load-path history length");
        h.columns({"history_bits", "coverage", "accuracy"});
        for (const unsigned bits : {4u, 8u, 12u, 16u, 24u, 32u}) {
            pred::PapParams pp;
            pp.histBits = bits;
            const auto r = sweep(pp);
            h.row({static_cast<long long>(bits), r.coverage(),
                   r.accuracy()});
        }
        h.print(os);

        sim::Table c("ablation: confidence requirement "
                     "(expected observations to saturate)");
        c.columns({"fpc_vector", "~obs", "coverage", "accuracy"});
        const std::tuple<const char *, std::vector<double>, double>
            points[] = {
                {"{1}", {1.0}, 1},
                {"{1,1}", {1.0, 1.0}, 2},
                {"{1,1/2,1/4} (paper)", {1.0, 0.5, 0.25}, 7},
                {"{1,1/4,1/8}", {1.0, 0.25, 0.125}, 13},
                {"{1,1/8,1/8,1/8}", {1.0, 0.125, 0.125, 0.125}, 25},
            };
        for (const auto &[name, probs, obs] : points) {
            pred::PapParams pp;
            pp.confProbs = probs;
            const auto r = sweep(pp);
            c.row({std::string(name), obs, r.coverage(), r.accuracy()});
        }
        c.print(os);

        // ---- core-level ablations ----
        sim::Table t("ablation: core-level design points "
                     "(sample-average speedup and coverage)");
        t.columns({"design", "avg_speedup", "avg_coverage",
                   "avg_paq_drop_rate"});
        for (std::size_t i = 0; i < rows.configNames.size(); ++i)
            t.row({rows.configNames[i], rows.meanSpeedup(i),
                   meanCoverage(rows, i),
                   meanOf(rows, [i](const sim::SweepRow &r) {
                       const auto &s = r.results[i];
                       return s.paqAllocs
                                  ? static_cast<double>(s.paqDrops) /
                                        static_cast<double>(s.paqAllocs)
                                  : 0.0;
                   })});
        t.print(os);
        os << "\nexpected: Policy-2 >= Policy-1; short PAQ lifetimes drop "
              "more entries\n";
    }};
}

/** §5.2.4's open future work, "trade accuracy for higher coverage ... identify
 *  the sweet spot": PAP's confidence under flush vs replay. Replay should move
 *  the sweet spot toward lower confidence. */
Figure
ablReplayTradeoff(std::size_t insts)
{
    static const std::pair<const char *, std::vector<double>> points[] = {
        {"conf~1", {1.0}},
        {"conf~3", {1.0, 1.0, 1.0}},
        {"conf~8 (paper)", {1.0, 0.5, 0.25}},
        {"conf~13", {1.0, 0.25, 0.125}},
    };
    Cells cells{.workloads = {"mcf", "perlbmk", "aifirf", "omnetpp",
                              "bzip2", "vpr", "dromaeo", "astar"},
                .insts = insts / 2};
    for (const auto &[name, probs] : points) {
        auto flush = sim::dlvpConfig();
        flush.pap.confProbs = probs;
        auto replay = flush;
        replay.recovery = core::RecoveryMode::OracleReplay;
        cells.configs.push_back({std::string(name) + "/flush", flush});
        cells.configs.push_back({std::string(name) + "/replay", replay});
    }
    return {.name = "abl_replay_tradeoff",
            .cells = cells,
            .render = [](const Rows &rows, std::ostream &os, Verdicts &) {
        sim::Table t("SS5.2.4 future work: accuracy-for-coverage "
                     "trade-off under flush vs replay recovery");
        t.columns({"confidence", "flush_speedup", "replay_speedup",
                   "coverage", "accuracy"});
        std::vector<double> flush, replay;
        for (std::size_t i = 0; i < 4; ++i) {
            flush.push_back(rows.meanSpeedup(2 * i));
            replay.push_back(rows.meanSpeedup(2 * i + 1));
            t.row({points[i].first, flush[i], replay[i],
                   meanCoverage(rows, 2 * i),
                   meanOf(rows, [i](const sim::SweepRow &w) {
                       return w.results[2 * i].accuracy();
                   })});
        }
        t.print(os);
        // The first point with the highest speedup.
        const auto best = [](const std::vector<double> &v) {
            return points[std::max_element(v.begin(), v.end()) - v.begin()]
                .first;
        };
        os << format("\nsweet spots: flush at %s, replay at %s (the paper "
                     "conjectures replay's moves toward lower "
                     "confidence)\n",
                     best(flush), best(replay));
    }};
}

/** §3.2.1's VPE designs as timing models: #1 shares the PRF write ports, #3
 *  (the paper's, and #2's timing) adds a PVT, swept in size. */
Figure
ablVpeDesigns(std::size_t insts)
{
    auto d1 = sim::dlvpConfig();
    d1.vpeDesign = core::VpeDesign::PortArbitration;
    const auto pvt = [](unsigned size) {
        auto vp = sim::dlvpConfig();
        vp.pvtSize = size;
        return vp;
    };
    return {.name = "abl_vpe_designs",
            .cells = {.workloads = {"mcf", "perlbmk", "aifirf", "astar",
                                    "omnetpp", "pdfjs", "dromaeo"},
                      .insts = insts * 2 / 3,
                      .configs = {{"design#1 (port arb)", d1},
                                  {"design#3 PVT=8", pvt(8)},
                                  {"design#3 PVT=16", pvt(16)},
                                  {"design#3 PVT=32 (paper)", pvt(32)},
                                  {"design#3 PVT=64", pvt(64)}}},
            .render = [](const Rows &rows, std::ostream &os, Verdicts &) {
        sim::Table t("SS3.2.1: VPE design options (sample averages)");
        t.columns({"design", "avg_speedup", "avg_coverage",
                   "drops_per_kilo_pred"});
        for (std::size_t i = 0; i < rows.configNames.size(); ++i) {
            double drops = 0, preds = 0;
            for (const auto &r : rows.rows) {
                drops += static_cast<double>(r.results[i].pvtFullDrops +
                                             r.results[i].prfPortDrops);
                preds += static_cast<double>(r.results[i].vpPredictedLoads);
            }
            t.row({rows.configNames[i], rows.meanSpeedup(i),
                   meanCoverage(rows, i),
                   preds > 0 ? 1000.0 * drops / preds : 0.0});
        }
        t.print(os);
        os << "\nexpected: design #1 loses predictions to port conflicts "
              "under load; the 32-entry PVT is already at the knee (\"this "
              "scenario is almost never encountered\").\nTable 2's "
              "area/energy side of this choice is printed by "
              "tab02_vpe_designs.\n";
    }};
}

/** Extension: the predictor zoo standalone (PAP, CAP(24) and the stride address
 *  predictor; LVP, VTAGE and §2.1's unevaluated D-VTAGE) and in-core. */
Figure
extPredictorZoo(std::size_t insts)
{
    const std::vector<std::string> sample = {
        "mcf",   "crafty", "perlbmk", "aifirf", "nat",
        "hmmer", "bzip2",  "omnetpp", "viterb", "pdfjs"};
    return {.name = "ext_predictor_zoo",
            .cells = {.workloads = sample,
                      .insts = insts / 2,
                      .configs = {{"DLVP (PAP)", sim::dlvpConfig()},
                                  {"DLVP (stride AP)",
                                   sim::strideDlvpConfig()},
                                  {"VTAGE", sim::vtageConfig()},
                                  {"D-VTAGE", sim::dvtageConfig()}}},
            .render = [sample, trace_insts = insts / 2](
                          const Rows &rows, std::ostream &os, Verdicts &) {
        sim::AddrPredResult pap, cap, stride, lvp, vtage, dvtage;
        for (const auto &w : sample) {
            const auto t = trace::WorkloadRegistry::build(w, trace_insts);
            accumulate(pap, sim::drivePap(t));
            pred::CapParams cp;
            cp.confThreshold = 24;
            accumulate(cap, sim::driveCap(t, cp));
            accumulate(stride,
                       sim::driveStrideAp(t, pred::StrideApParams{}));
            accumulate(lvp, sim::driveValuePred(t, sim::ValuePredKind::Lvp));
            accumulate(vtage,
                       sim::driveValuePred(t, sim::ValuePredKind::Vtage));
            accumulate(dvtage,
                       sim::driveValuePred(t, sim::ValuePredKind::Dvtage));
        }

        sim::Table s("extension: standalone predictor zoo "
                     "(sample aggregate)");
        s.columns({"predictor", "kind", "coverage", "accuracy"});
        const auto row = [&s](const char *name, const char *kind,
                              const sim::AddrPredResult &r) {
            s.row({std::string(name), std::string(kind), r.coverage(),
                   r.accuracy()});
        };
        row("PAP (conf 8)", "address", pap);
        row("CAP (conf 24)", "address", cap);
        row("stride AP", "address", stride);
        row("LVP", "value", lvp);
        row("VTAGE", "value", vtage);
        row("D-VTAGE", "value", dvtage);
        s.print(os);

        sim::Table t("extension: in-core comparison (sample)");
        t.columns({"workload", "dlvp", "stride_dlvp", "vtage", "dvtage"});
        for (const auto &r : rows.rows)
            t.row({r.workload, sim::speedup(r.baseline, r.results[0]),
                   sim::speedup(r.baseline, r.results[1]),
                   sim::speedup(r.baseline, r.results[2]),
                   sim::speedup(r.baseline, r.results[3])});
        t.row({"AVERAGE", rows.meanSpeedup(0),
               rows.meanSpeedup(1), rows.meanSpeedup(2),
               rows.meanSpeedup(3)});
        t.print(os);
        os << "\nexpected shape: PAP leads the address predictors; D-VTAGE "
              ">= VTAGE (stride deltas add the walker workloads); DLVP "
              "leads in-core\n";
    }};
}

/** Extension: DLVP's benefit vs machine width. Value prediction breaks true
 *  dependencies, so the benefit should hold or grow as the core widens. */
Figure
extWidthSensitivity(std::size_t insts)
{
    return {.name = "ext_width_sensitivity",
            .render = [run_insts = insts / 2](const Rows &, std::ostream &os,
                                              Verdicts &) {
        const std::tuple<const char *, unsigned, unsigned, unsigned,
                         unsigned, unsigned>
            points[] = {
                {"2-wide", 2, 2, 4, 1, 4},
                {"4-wide (paper)", 4, 4, 8, 2, 8},
                {"6-wide", 6, 6, 10, 3, 10},
            };
        const std::vector<std::string> sample = {
            "mcf", "astar", "perlbmk", "aifirf", "pdfjs", "dromaeo"};

        sim::Table t("extension: DLVP benefit vs machine width "
                     "(sample averages)");
        t.columns({"width", "baseline_ipc", "dlvp_speedup"});
        for (const auto &[name, fetch, dispatch, issue, ls, commit] :
             points) {
            core::CoreParams params = sim::baselineCore();
            params.fetchWidth = fetch;
            params.dispatchWidth = dispatch;
            params.issueWidth = issue;
            params.lsLanes = ls;
            params.commitWidth = commit;
            sim::Simulator simulator(params, run_insts);
            std::vector<double> ipcs, spds;
            for (const auto &w : sample) {
                const auto base = simulator.run(w, sim::baselineVp());
                const auto dlvp = simulator.run(w, sim::dlvpConfig());
                ipcs.push_back(base.ipc());
                spds.push_back(sim::speedup(base, dlvp));
                simulator.evict(w);
            }
            t.row({name, sim::amean(ipcs), sim::amean(spds)});
        }
        t.print(os);
        os << "\nexpected: the absolute benefit holds or grows with width "
              "— dependency chains, not structural width, are the binding "
              "constraint value prediction attacks\n";
    }};
}

} // namespace

void
addExtraFigures(std::vector<Figure> &figs, std::size_t insts)
{
    for (auto *make : {ablPapDesign, ablReplayTradeoff, ablVpeDesigns,
                       extPredictorZoo, extWidthSensitivity})
        figs.push_back(make(insts));
}

} // namespace dlvp::bench
