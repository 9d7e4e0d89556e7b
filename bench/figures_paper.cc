/** @file
 *  The paper's evaluation as registry entries: Figures 1-10 and Tables
 *  1-4 (DESIGN.md §4), with the paper's numbers beside ours. */

#include "bench/figures.hh"
#include "energy/core_energy.hh"
#include "energy/sram_model.hh"
#include "pred/cap.hh"
#include "pred/ittage.hh"
#include "pred/pap.hh"
#include "pred/tage.hh"
#include "pred/vtage.hh"
#include "trace/profilers.hh"

namespace dlvp::bench
{

namespace
{

/** Figure 1: loads that consume a value stored since their prior instance,
 *  split into committed-store conflicts (avoidable by address prediction) and
 *  in-flight ones (the LSCD's). Paper: ~67% committed. */
Figure
fig01(std::size_t insts)
{
    return {.name = "fig01_load_store_conflicts",
            .render = [insts](const Rows &, std::ostream &os, Verdicts &) {
        sim::Table t("Figure 1: loads consuming a value stored since "
                     "their prior instance");
        t.columns({"workload", "committed_frac", "inflight_frac",
                   "total_frac"});
        double committed_sum = 0.0, inflight_sum = 0.0;
        const auto names = trace::WorkloadRegistry::names();
        for (const auto &w : names) {
            const auto trace = trace::WorkloadRegistry::build(w, insts);
            const auto prof = trace::profileConflicts(trace);
            t.row({w, prof.committedFraction(), prof.inflightFraction(),
                   prof.totalFraction()});
            committed_sum += prof.committedFraction();
            inflight_sum += prof.inflightFraction();
        }
        const double n = static_cast<double>(names.size());
        const double committed = committed_sum / n;
        const double inflight = inflight_sum / n;
        t.row({"AVERAGE", committed, inflight, committed + inflight});
        t.print(os);
        os << format("\ncommitted share of all conflicts: %.1f%% "
                     "(paper: ~67%% -> addressable by DLVP)\n",
                     100.0 * committed / (committed + inflight));
    }};
}

/** Figure 2: loads by how often their address or value repeats. Paper: 91% of
 *  addresses repeat >= 8 times, 80% of values >= 64 times. */
Figure
fig02(std::size_t insts)
{
    return {.name = "fig02_repeatability",
            .render = [insts](const Rows &, std::ostream &os, Verdicts &) {
        const auto names = trace::WorkloadRegistry::names();
        std::vector<double> addr_sum(11, 0.0), val_sum(11, 0.0);
        for (const auto &w : names) {
            const auto trace = trace::WorkloadRegistry::build(w, insts);
            const auto prof = trace::profileRepeatability(trace);
            for (unsigned k = 0; k < 11; ++k) {
                addr_sum[k] += prof.fractionAddrAtLeast[k];
                val_sum[k] += prof.fractionValueAtLeast[k];
            }
        }

        sim::Table t("Figure 2: fraction of dynamic loads whose "
                     "address/value repeated >= N times (suite "
                     "average)");
        t.columns({"repeats>=", "addresses", "values"});
        const double n = static_cast<double>(names.size());
        for (unsigned k = 0; k < 11; ++k)
            t.row({static_cast<long long>(1u << k), addr_sum[k] / n,
                   val_sum[k] / n});
        t.print(os);
        os << "\npaper anchors: addr>=8 ~ 0.91, value>=64 ~ 0.80\n"
           << format("measured:      addr>=8 = %.2f, value>=64 = %.2f\n",
                     addr_sum[3] / n, val_sum[6] / n);
    }};
}

/** Figure 4 (§5.1): standalone PAP (confidence 8) vs CAP (3..64). Paper: PAP
 *  37% coverage / 99.1% accuracy, CAP(8) 29.5% / 97.7%; CAP needs confidence 64
 *  to match PAP's accuracy, at 24% coverage. */
Figure
fig04(std::size_t insts)
{
    return {.name = "fig04_pap_vs_cap",
            .claimsPrefix = "shape: ",
            .claims = {{"PAP > CAP(8) on both axes"},
                       {"CAP accuracy rises and coverage falls with "
                        "confidence"}},
            .render = [insts](const Rows &, std::ostream &os,
                              Verdicts &holds) {
        const unsigned cap_confs[] = {3, 8, 16, 24, 32, 64};
        sim::AddrPredResult pap_total;
        sim::AddrPredResult cap_total[6];
        for (const auto &w : trace::WorkloadRegistry::names()) {
            const auto trace = trace::WorkloadRegistry::build(w, insts);
            accumulate(pap_total, sim::drivePap(trace));
            for (unsigned i = 0; i < 6; ++i) {
                pred::CapParams cp;
                cp.confThreshold = cap_confs[i];
                accumulate(cap_total[i], sim::driveCap(trace, cp));
            }
        }

        sim::Table t("Figure 4: standalone address prediction "
                     "(suite aggregate)");
        t.columns({"predictor", "coverage", "accuracy"});
        t.row({std::string("PAP (conf 8)"), pap_total.coverage(),
               pap_total.accuracy()});
        for (unsigned i = 0; i < 6; ++i)
            t.row({std::string("CAP (conf ") +
                       std::to_string(cap_confs[i]) + ")",
                   cap_total[i].coverage(), cap_total[i].accuracy()});
        t.print(os);
        os << "\npaper: PAP 0.370/0.991; CAP(8) 0.295/0.977; "
              "CAP(64) 0.240/~0.991\n";
        holds = {pap_total.coverage() > cap_total[1].coverage() &&
                     pap_total.accuracy() > cap_total[1].accuracy(),
                 cap_total[5].accuracy() >= cap_total[0].accuracy() &&
                     cap_total[5].coverage() <= cap_total[0].coverage()};
    }};
}

/** Figure 5: DLVP's prefetch on probe miss, on vs off, and the loads it
 *  prefetches for. Paper: ~0.3% of loads (1.1% on h264ref), ~0.1% gain. */
Figure
fig05(std::size_t insts)
{
    auto off = sim::dlvpConfig();
    off.dlvpPrefetch = false;
    auto on = sim::dlvpConfig();
    on.dlvpPrefetch = true;
    // The paper's Figure 5 shows a subset plus the average; we show
    // the memory-bound candidates plus a broad sample.
    return {.name = "fig05_prefetch",
            .cells = {.workloads = {"h264ref", "soplex", "bzip2", "mcf",
                                    "omnetpp", "perlbmk", "aifirf",
                                    "hmmer", "xalancbmk", "pdfjs"},
                      .insts = insts,
                      .configs = {{"DLVP-nopf", off}, {"DLVP+pf", on}}},
            .render = [](const Rows &rows, std::ostream &os, Verdicts &) {
        sim::Table t("Figure 5: DLVP prefetch-on-probe-miss");
        t.columns({"workload", "spd_nopf", "spd_pf", "pf_gain",
                   "loads_prefetched"});
        std::vector<double> gains, fracs;
        for (const auto &r : rows.rows) {
            const double s0 = sim::speedup(r.baseline, r.results[0]);
            const double s1 = sim::speedup(r.baseline, r.results[1]);
            const double frac =
                r.results[1].committedLoads
                    ? static_cast<double>(r.results[1].dlvpPrefetches) /
                          static_cast<double>(r.results[1].committedLoads)
                    : 0.0;
            gains.push_back(s1 / s0);
            fracs.push_back(frac);
            t.row({r.workload, s0, s1, s1 / s0, frac});
        }
        t.row({std::string("AVERAGE"), rows.meanSpeedup(0),
               rows.meanSpeedup(1), sim::amean(gains), sim::amean(fracs)});
        t.print(os);
        os << "\npaper: fraction prefetched is small (avg ~0.3%), so the "
              "average gain is ~0.1%\n";
    }};
}

/** Figure 6, the main result: CAP vs VTAGE vs DLVP (plus the zoo's BALCVP and
 *  Hermes). 6a/6b speedup and coverage per workload, 6c core energy, 6d
 *  predictor array costs, and §3.2.2's PAQ-drop and way-misprediction rates.
 *  Paper: DLVP +4.8% (perlbmk +71%), VTAGE +2.1%, CAP +2.3%; coverage DLVP
 *  31.1%, VTAGE 29.6%. */
Figure
fig06(std::size_t insts)
{
    return {.name = "fig06_comparison",
            .cells = {.insts = insts,
                      .configs = {{"CAP", sim::capConfig()},
                                  {"VTAGE", sim::vtageConfig()},
                                  {"DLVP", sim::dlvpConfig()},
                                  {"BALCVP", sim::balcvpConfig()},
                                  {"Hermes", sim::hermesConfig()}}},
            .render = [](const Rows &rows, std::ostream &os, Verdicts &) {
        sim::Table a("Figure 6a/6b: speedup and coverage per workload "
                     "(+ zoo)");
        a.columns({"workload", "cap_spd", "vtage_spd", "dlvp_spd",
                   "balcvp_spd", "hermes_spd", "cap_cov", "vtage_cov",
                   "dlvp_cov"});
        for (const auto &r : rows.rows)
            a.row({r.workload, sim::speedup(r.baseline, r.results[0]),
                   sim::speedup(r.baseline, r.results[1]),
                   sim::speedup(r.baseline, r.results[2]),
                   sim::speedup(r.baseline, r.results[3]),
                   sim::speedup(r.baseline, r.results[4]),
                   r.results[0].coverage(), r.results[1].coverage(),
                   r.results[2].coverage()});
        // Per-suite rows (the paper's figure groups the x-axis by
        // suite).
        for (const char *suite :
             {"SPEC2K", "SPEC2K6", "EEMBC", "Other", "JS"}) {
            std::vector<std::vector<double>> s(5);
            for (const auto &r : rows.rows) {
                if (trace::WorkloadRegistry::find(r.workload).suite !=
                    suite)
                    continue;
                for (std::size_t ci = 0; ci < 5; ++ci)
                    s[ci].push_back(
                        sim::speedup(r.baseline, r.results[ci]));
            }
            if (!s[0].empty())
                a.row({std::string("  avg:") + suite, sim::amean(s[0]),
                       sim::amean(s[1]), sim::amean(s[2]),
                       sim::amean(s[3]), sim::amean(s[4]), "", "", ""});
        }
        a.row({std::string("AVERAGE"), rows.meanSpeedup(0),
               rows.meanSpeedup(1), rows.meanSpeedup(2),
               rows.meanSpeedup(3), rows.meanSpeedup(4),
               meanCoverage(rows, 0), meanCoverage(rows, 1),
               meanCoverage(rows, 2)});
        a.print(os);

        sim::Table c("Figure 6c: total core energy normalized to "
                     "baseline");
        c.columns({"workload", "cap", "vtage", "dlvp"});
        double esum[3] = {0, 0, 0};
        for (const auto &r : rows.rows) {
            const double base = energy::coreEnergy(r.baseline);
            double e[3];
            for (int i = 0; i < 3; ++i) {
                e[i] = energy::coreEnergy(r.results[i]) / base;
                esum[i] += e[i];
            }
            c.row({r.workload, e[0], e[1], e[2]});
        }
        const double nrows = static_cast<double>(rows.rows.size());
        c.row({"AVERAGE", esum[0] / nrows, esum[1] / nrows, esum[2] / nrows});
        c.print(os);

        const auto pap = energy::papArrayCosts();
        const auto cap = energy::capArrayCosts();
        const auto vt = energy::vtageArrayCosts();
        sim::Table d("Figure 6d: predictor array area/energy normalized "
                     "to PAP");
        d.columns({"predictor", "area", "read_energy", "write_energy"});
        d.row({"PAP", 1.0, 1.0, 1.0});
        for (const auto &[name, x] : {std::pair{"CAP", cap}, {"VTAGE", vt}})
            d.row({name, x.area / pap.area, x.readEnergy / pap.readEnergy,
                   x.writeEnergy / pap.writeEnergy});
        d.print(os);

        // §3.2.2 side claims.
        std::uint64_t paq_allocs = 0, paq_drops = 0, probes = 0,
                      way_miss = 0;
        for (const auto &r : rows.rows) {
            paq_allocs += r.results[2].paqAllocs;
            paq_drops += r.results[2].paqDrops;
            probes += r.results[2].probes;
            way_miss += r.results[2].wayMispredicts;
        }
        os << format("\nDLVP PAQ drop rate: %.3f%% of allocations "
                     "(paper: <0.1%%)\n",
                     paq_allocs ? 100.0 * static_cast<double>(paq_drops) /
                                      static_cast<double>(paq_allocs)
                                : 0.0)
           << format("DLVP way mispredictions: %.4f%% of probes "
                     "(paper: almost never)\n",
                     probes ? 100.0 * static_cast<double>(way_miss) /
                                  static_cast<double>(probes)
                            : 0.0)
           << "\npaper anchors: DLVP +4.8% avg / VTAGE +2.1% / CAP "
              "+2.3%; coverage DLVP 31.1% vs VTAGE 29.6%\n";
    }};
}

/** Figure 7 (§5.2.2): vanilla VTAGE vs dynamic vs static opcode filter, on
 *  loads only or all instructions. Paper: a filter helps a lot, static beats
 *  dynamic, loads-only beats all at an 8KB budget. */
Figure
fig07(std::size_t insts)
{
    Cells cells{.insts = insts};
    for (const bool loads : {true, false})
        for (const auto &[name, filter] :
             {std::pair{"vanilla", pred::VtageFilter::None},
              {"dynamic", pred::VtageFilter::Dynamic},
              {"static", pred::VtageFilter::Static}})
            cells.configs.push_back(
                {std::string(name) + (loads ? "/loads" : "/all"),
                 sim::vtageConfigWith(filter, loads)});
    return {.name = "fig07_vtage_flavors",
            .cells = cells,
            .claimsPrefix = "\nshape checks: ",
            .claims = {{"static >= dynamic >= vanilla (loads)", false,
                        "the synthetic multi-register loads are either "
                        "fully stable or fully chaotic, with none of the "
                        "semi-stable register-spill traffic that flushes "
                        "vanilla VTAGE on real binaries, so vanilla ties "
                        "static and beats dynamic"},
                       {"loads-only static >= all-insts static"}},
            .render = [](const Rows &rows, std::ostream &os, Verdicts &holds) {
        sim::Table t("Figure 7: VTAGE flavors (suite averages)");
        t.columns({"configuration", "avg_speedup", "avg_coverage",
                   "avg_accuracy"});
        std::vector<double> spd(rows.configNames.size());
        for (std::size_t i = 0; i < spd.size(); ++i) {
            spd[i] = rows.meanSpeedup(i);
            std::uint64_t pred = 0, correct = 0;
            for (const auto &r : rows.rows) {
                pred += r.results[i].vpPredictedLoads +
                        r.results[i].vpPredictedInsts;
                correct += r.results[i].vpCorrectLoads +
                           r.results[i].vpCorrectInsts;
            }
            t.row({rows.configNames[i], spd[i], meanCoverage(rows, i),
                   pred ? static_cast<double>(correct) /
                              static_cast<double>(pred)
                        : 0.0});
        }
        t.print(os);
        holds = {spd[2] >= spd[1] - 0.002 && spd[1] >= spd[0] - 0.002,
                 spd[2] >= spd[5] - 0.002};
    }};
}

/** Figure 8 (§5.2.3): DLVP and VTAGE alone vs as a tournament (8a), and who
 *  makes the final predictions (8b; paper: DLVP 18.2%, VTAGE 16.1%). */
Figure
fig08(std::size_t insts)
{
    return {.name = "fig08_tournament",
            .cells = {.insts = insts,
                      .configs = {{"DLVP", sim::dlvpConfig()},
                                  {"VTAGE", sim::vtageConfig()},
                                  {"tournament", sim::tournamentConfig()}}},
            .render = [](const Rows &rows, std::ostream &os, Verdicts &) {
        sim::Table a("Figure 8a: alone vs combined (suite averages)");
        a.columns({"configuration", "avg_speedup", "avg_coverage"});
        for (std::size_t i = 0; i < rows.configNames.size(); ++i)
            a.row({rows.configNames[i], rows.meanSpeedup(i),
                   meanCoverage(rows, i)});
        a.print(os);

        // Fraction of committed loads whose final tournament
        // prediction came from one side.
        const auto share = [&rows](std::uint64_t core::CoreStats::*side) {
            return meanOf(rows, [side](const sim::SweepRow &r) {
                const auto &s = r.results[2];
                return s.committedLoads
                           ? static_cast<double>(s.*side) /
                                 static_cast<double>(s.committedLoads)
                           : 0.0;
            });
        };
        sim::Table b("Figure 8b: breakdown of final predictions "
                     "(fraction of loads)");
        b.columns({"final predictor", "fraction_of_loads"});
        b.row({"DLVP", share(&core::CoreStats::tournamentDlvpFinal)});
        b.row({"VTAGE", share(&core::CoreStats::tournamentVtageFinal)});
        b.print(os);
        os << format("\ncombined coverage gain over DLVP alone: %.1f "
                     "points (paper: small — the predictors overlap "
                     "substantially)\n",
                     100.0 * (meanCoverage(rows, 2) -
                              meanCoverage(rows, 0)))
           << "paper 8b: DLVP 18.2% vs VTAGE 16.1% of loads\n";
    }};
}

/** Figure 9: workloads whose speedup does not follow their coverage, with the
 *  TLB side effects of DLVP probing the cache twice. */
Figure
fig09(std::size_t insts)
{
    return {.name = "fig09_selected",
            .cells = {.workloads = {"bzip2", "pdfjs", "gcc", "soplex",
                                    "avmshell"},
                      .insts = insts,
                      .configs = {{"VTAGE", sim::vtageConfig()},
                                  {"DLVP", sim::dlvpConfig()}}},
            .render = [](const Rows &rows, std::ostream &os, Verdicts &) {
        sim::Table t("Figure 9: speedup vs coverage decorrelation");
        t.columns({"workload", "vtage_spd", "dlvp_spd", "vtage_cov",
                   "dlvp_cov", "vtage_acc", "dlvp_acc", "base_tlb_miss",
                   "dlvp_tlb_miss"});
        for (const auto &r : rows.rows)
            t.row({r.workload, sim::speedup(r.baseline, r.results[0]),
                   sim::speedup(r.baseline, r.results[1]),
                   r.results[0].coverage(), r.results[1].coverage(),
                   r.results[0].accuracy(), r.results[1].accuracy(),
                   static_cast<long long>(r.baseline.tlbMisses),
                   static_cast<long long>(r.results[1].tlbMisses)});
        t.print(os);
        os << "\npaper: probing the cache twice shifts TLB miss rates "
              "(hurts bzip2, helps avmshell); accuracy differences matter "
              "more than coverage differences\n";
    }};
}

/** Figure 10 (§5.2.4): flush vs oracle-replay recovery. Paper: CAP gains most
 *  (2.3% -> 4.2%); DLVP and VTAGE +0.8/+0.7 points. */
Figure
fig10(std::size_t insts)
{
    Cells cells{.insts = insts};
    for (const auto &[name, vp] : {std::pair{"CAP", sim::capConfig()},
                                   std::pair{"DLVP", sim::dlvpConfig()},
                                   std::pair{"VTAGE", sim::vtageConfig()}}) {
        auto replay = vp;
        replay.recovery = core::RecoveryMode::OracleReplay;
        cells.configs.push_back({std::string(name) + "/flush", vp});
        cells.configs.push_back({std::string(name) + "/replay", replay});
    }
    return {.name = "fig10_recovery",
            .cells = cells,
            .claimsPrefix = "shape: ",
            .claims = {{"CAP gains most from replay", false,
                        "this repository's idealized CAP rarely flushes, "
                        "and DLVP's boundary mispredictions on serial "
                        "chains are the costliest flushes, so DLVP gains "
                        "most"}},
            .render = [](const Rows &rows, std::ostream &os, Verdicts &holds) {
        sim::Table t("Figure 10: flush vs oracle-replay recovery "
                     "(suite averages)");
        t.columns({"predictor", "flush_speedup", "replay_speedup",
                   "replay_gain_pts"});
        const char *names[] = {"CAP", "DLVP", "VTAGE"};
        double gains[3];
        for (std::size_t i = 0; i < 3; ++i) {
            const double flush = rows.meanSpeedup(2 * i);
            const double replay = rows.meanSpeedup(2 * i + 1);
            gains[i] = (replay - flush) * 100.0;
            t.row({names[i], flush, replay, gains[i]});
        }
        t.print(os);
        os << "\npaper: CAP gains ~1.9 points from replay; DLVP and VTAGE "
              "gain only ~0.8/0.7 (already >99% accurate)\n";
        holds = {gains[0] >= gains[1] && gains[0] >= gains[2]};
    }};
}

/** Table 1: the APT entry's fields and storage budget, against the abstract's
 *  "modest 8KB prediction table". */
Figure
tab01()
{
    return {.name = "tab01_apt_fields",
            .render = [](const Rows &, std::ostream &os, Verdicts &) {
        pred::PapParams armv8;
        pred::PapParams armv7 = armv8;
        armv7.addrBits = 32;

        sim::Table t("Table 1: APT entry fields");
        t.columns({"field", "bits", "notes"});
        t.row({"tag", static_cast<long long>(armv8.tagBits),
               "XOR of load PC and folded load-path history"});
        t.row({"memory address", 49LL, "32 (ARMv7) or 49 (ARMv8)"});
        t.row({"confidence", 2LL, "FPC, probability vector {1, 1/2, 1/4}"});
        t.row({"size", 2LL, "bytes per destination register"});
        t.row({"cache way", 2LL, "optional; log2(L1 associativity)"});
        t.print(os);

        pred::Pap pap8(armv8);
        pred::Pap pap7(armv7);
        os << format("\nAPT: %u entries, direct-mapped\n",
                     1u << armv8.tableBits)
           << format("total budget ARMv7: %llu bits (%.1f KB)\n",
                     static_cast<unsigned long long>(pap7.storageBits()),
                     static_cast<double>(pap7.storageBits()) / 8192.0)
           << format("total budget ARMv8: %llu bits (%.1f KB)\n",
                     static_cast<unsigned long long>(pap8.storageBits()),
                     static_cast<double>(pap8.storageBits()) / 8192.0)
           << "paper (Table 4): 50k bits (ARMv7) / 67k bits (ARMv8); "
              "abstract: 'a modest 8KB prediction table'\n";
    }};
}

/** Table 2 (§3.2.1): area and energy of the three VPE designs, normalized to
 *  design #1, beside the paper's values. */
Figure
tab02()
{
    return {.name = "tab02_vpe_designs",
            .claimsPrefix = "\nshape checks: ",
            .claims = {{"PVT tiny"},
                       {"D3 cheaper than D2"},
                       {"D3 read < 1"},
                       {"D3 write > 1"}},
            .render = [](const Rows &, std::ostream &os, Verdicts &holds) {
        const auto r = energy::compareVpeDesigns();
        sim::Table t("Table 2: area and energy normalized to design #1");
        t.columns({"metric", "PVT(2r/2w)", "D1(8r/8w)", "D2(8r/10w)",
                   "D3(D1+PVT)", "paper_PVT", "paper_D2", "paper_D3"});
        t.row({std::string("area"), r.pvtArea, r.d1Area, r.d2Area,
               r.d3Area, 0.06, 1.16, 1.06});
        t.row({std::string("read energy"), r.pvtRead, r.d1Read, r.d2Read,
               r.d3Read, 0.10, 1.10, 0.80});
        t.row({std::string("write energy"), r.pvtWrite, r.d1Write,
               r.d2Write, r.d3Write, 0.07, 1.51, 1.07});
        t.print(os);
        holds = {r.pvtArea < 0.2, r.d3Area < r.d2Area, r.d3Read < 1.0,
                 r.d3Write > 1.0};
    }};
}

/** Table 3: every workload with its suite, description and instruction mix
 *  (§4.1). The mix settles long before the figures' run length. */
Figure
tab03(std::size_t insts)
{
    return {.name = "tab03_workloads",
            .render = [mix_insts = insts / 5](const Rows &, std::ostream &os,
                                              Verdicts &) {
        sim::Table t("Table 3: applications used in the evaluation "
                     "(synthetic analogues; see DESIGN.md)");
        t.columns({"workload", "suite", "loads%", "stores%", "branches%",
                   "multi-dest%", "description"});
        t.precision(1);
        for (const auto &spec : trace::WorkloadRegistry::all()) {
            const auto mix =
                trace::WorkloadRegistry::build(spec.name, mix_insts).mix();
            const double n = static_cast<double>(mix.total);
            t.row({spec.name, spec.suite,
                   100.0 * static_cast<double>(mix.loads) / n,
                   100.0 * static_cast<double>(mix.stores) / n,
                   100.0 * static_cast<double>(mix.branches) / n,
                   mix.loads
                       ? 100.0 * static_cast<double>(mix.multiDestLoads) /
                             static_cast<double>(mix.loads)
                       : 0.0,
                   spec.description});
        }
        t.print(os);
        os << format("\n%zu workloads across 5 suites (paper: SPEC2K, "
                     "SPEC2K6, EEMBC, Linpack/media/browser, "
                     "Javascript)\n",
                     trace::WorkloadRegistry::all().size());
    }};
}

/** Table 4: the baseline core and each predictor's storage budget, beside the
 *  paper's numbers. */
Figure
tab04()
{
    return {.name = "tab04_baseline_config",
            .render = [](const Rows &, std::ostream &os, Verdicts &) {
        const auto p = sim::baselineCore();
        sim::Table t("Table 4: baseline core configuration");
        t.columns({"parameter", "value"});
        const auto row = [&t](const char *k, const std::string &v) {
            t.row({std::string(k), v});
        };
        row("fetch-rename width", "4 instr/cycle");
        row("issue-commit width",
            "8 instr/cycle (2 load-store + 6 generic lanes)");
        row("ROB/IQ/LDQ/STQ",
            std::to_string(p.robSize) + "/" + std::to_string(p.iqSize) +
                "/" + std::to_string(p.ldqSize) + "/" +
                std::to_string(p.stqSize));
        row("physical RF", std::to_string(p.numPhysRegs));
        row("fetch-to-execute",
            std::to_string(p.fetchToDispatch + 2) + " cycles");
        row("L1 (I/D)", "64KB each, 4-way, 1/2-cycle");
        row("L2", "512KB, 8-way, 16-cycle");
        row("L3", "8MB, 16-way, 32-cycle");
        row("memory", std::to_string(p.memory.memLatency) + "-cycle");
        row("TLB", "512-entry, 8-way");
        row("prefetchers", "stride-based (L1)");
        row("branch predictors", "TAGE + ITTAGE + 16-entry RAS");
        row("MDP", "Alpha 21264-style store-wait table");
        t.print(os);

        sim::Table b("predictor storage budgets (bits)");
        b.columns({"predictor", "modeled", "paper"});
        const auto budget = [&b](const char *name, std::uint64_t bits,
                                 const char *paper) {
            b.row({std::string(name), static_cast<long long>(bits),
                   std::string(paper)});
        };
        budget("PAP/APT (ARMv8)", pred::Pap({}).storageBits(), "67k");
        budget("CAP (ARMv8)", pred::Cap(pred::CapParams{}).storageBits(),
               "95k");
        budget("VTAGE", pred::Vtage({}).storageBits(), "62.3k");
        budget("TAGE", pred::Tage({}).storageBits(), "32KB-class");
        budget("ITTAGE", pred::Ittage({}).storageBits(), "32KB-class");
        b.print(os);
    }};
}

} // namespace

void
addPaperFigures(std::vector<Figure> &figs, std::size_t insts)
{
    for (auto *make : {fig01, fig02, fig04, fig05, fig06, fig07, fig08,
                       fig09, fig10})
        figs.push_back(make(insts));
    figs.push_back(tab01());
    figs.push_back(tab02());
    figs.push_back(tab03(insts));
    figs.push_back(tab04());
}

} // namespace dlvp::bench
