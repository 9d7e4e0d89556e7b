#include "bench/figures.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "common/json_escape.hh"

namespace dlvp::bench
{

void addPaperFigures(std::vector<Figure> &figs, std::size_t insts);
void addExtraFigures(std::vector<Figure> &figs, std::size_t insts);

std::vector<Figure>
registry(std::size_t insts)
{
    std::vector<Figure> figs;
    addPaperFigures(figs, insts);
    addExtraFigures(figs, insts);
    return figs;
}

namespace
{

std::vector<std::string>
workloadsOf(const Cells &cells)
{
    return cells.workloads.empty() ? trace::WorkloadRegistry::names()
                                   : cells.workloads;
}

/** Index of the config equal to @p vp (configs.size() if none). */
std::size_t
indexOf(const std::vector<sim::SweepConfig> &configs,
        const core::VpConfig &vp)
{
    return static_cast<std::size_t>(
        std::find_if(configs.begin(), configs.end(),
                     [&vp](const auto &c) { return c.vp == vp; }) -
        configs.begin());
}

/** A figure's rows, gathered from the grids that simulated them. */
sim::SweepResult
gather(const Cells &cells, const std::vector<sim::SweepSpec> &grids,
       const std::vector<sim::SweepResult> &results)
{
    sim::SweepResult out;
    out.insts = cells.insts;
    for (const auto &c : cells.configs)
        out.configNames.push_back(c.name);
    for (const std::string &w : workloadsOf(cells)) {
        // Exactly one grid holds w at these insts.
        std::size_t g = 0, wi = 0;
        for (;; ++g) {
            const auto &ws = grids[g].workloads;
            wi = static_cast<std::size_t>(
                std::find(ws.begin(), ws.end(), w) - ws.begin());
            if (grids[g].insts == cells.insts && wi < ws.size())
                break;
        }
        const sim::SweepRow &src = results[g].rows[wi];
        sim::SweepRow &row = out.rows.emplace_back();
        row.workload = w;
        row.baseline = src.baseline;
        row.baselinePerf = src.baselinePerf;
        row.baselineOutcome = src.baselineOutcome;
        row.baselineSample = src.baselineSample;
        for (const auto &c : cells.configs) {
            const std::size_t i = indexOf(grids[g].configs, c.vp);
            row.results.push_back(src.results[i]);
            row.perf.push_back(src.perf[i]);
            row.outcomes.push_back(src.outcomes[i]);
            row.samples.push_back(src.samples[i]);
        }
    }
    return out;
}

} // namespace

std::vector<sim::SweepSpec>
planGrids(const std::vector<const Figure *> &figures)
{
    // The distinct configs at one insts, in first-request order, and
    // which of them each workload needs.
    struct Group
    {
        std::size_t insts;
        std::vector<sim::SweepConfig> configs = {};
        std::map<std::string, std::set<std::size_t>> needs = {};
    };
    std::vector<Group> groups;
    for (const Figure *f : figures) {
        const Cells &cells = f->cells;
        if (cells.configs.empty())
            continue;
        auto g = std::find_if(groups.begin(), groups.end(), [&](auto &x) {
            return x.insts == cells.insts;
        });
        if (g == groups.end())
            g = groups.insert(groups.end(), {cells.insts});
        for (const std::string &w : workloadsOf(cells)) {
            auto &need = g->needs[w];
            for (const auto &c : cells.configs) {
                const std::size_t i = indexOf(g->configs, c.vp);
                if (i == g->configs.size())
                    g->configs.push_back(c);
                need.insert(i);
            }
        }
    }

    std::vector<sim::SweepSpec> grids;
    for (const Group &g : groups) {
        std::map<std::set<std::size_t>, std::size_t> byNeeds;
        for (const auto &[w, need] : g.needs) {
            const auto [it, fresh] = byNeeds.emplace(need, grids.size());
            if (fresh) {
                sim::SweepSpec &spec = grids.emplace_back();
                spec.insts = g.insts;
                spec.core = sim::baselineCore();
                spec.baseline = sim::baselineVp();
                for (const std::size_t i : need)
                    spec.configs.push_back(g.configs[i]);
            }
            grids[it->second].workloads.push_back(w);
        }
    }
    return grids;
}

FiguresRun
runFigures(const std::vector<const Figure *> &figures)
{
    std::vector<sim::SweepSpec> grids = planGrids(figures);
    FiguresRun run;
    for (const auto &g : grids)
        run.cells += g.workloads.size() * (g.configs.size() + 1);
    std::vector<sim::SweepResult> results;
    std::size_t before = 0; // cells of the grids already run
    for (auto &g : grids) {
        g.progress = [&](std::size_t done, std::size_t) {
            // One fputs per event: atomic at the stdio level.
            char buf[64];
            std::snprintf(buf, sizeof buf, "\r%zu/%zu jobs",
                          before + done, run.cells);
            std::fputs(buf, stderr);
            if (before + done == run.cells)
                std::fputc('\n', stderr);
        };
        const sim::SweepResult &r = results.emplace_back(sim::runSweep(g));
        before += g.workloads.size() * (g.configs.size() + 1);
        // Per-job isolation (DESIGN.md §9): a failed cell is reported,
        // and the figures leave it out of their means.
        for (const auto &row : r.rows)
            for (std::size_t ci = 0; ci <= r.configNames.size(); ++ci) {
                const auto &o = ci ? row.outcomes[ci - 1]
                                   : row.baselineOutcome;
                if (!o.ok())
                    std::fprintf(stderr, "warn: %s/%s: %s\n",
                                 row.workload.c_str(),
                                 ci ? r.configNames[ci - 1].c_str()
                                    : "baseline",
                                 o.error.c_str());
            }
    }

    for (const Figure *f : figures) {
        FigureRun &fr = run.figures.emplace_back();
        fr.figure = f;
        if (!f->cells.configs.empty())
            fr.rows = gather(f->cells, grids, results);
        std::fprintf(stderr, "%s\n", f->name.c_str());
        std::ostringstream os;
        f->render(fr.rows, os, fr.holds);
        for (std::size_t i = 0; i < f->claims.size(); ++i)
            os << (i ? " | " : f->claimsPrefix) << f->claims[i].text
               << (fr.holds[i] ? "? yes" : "? NO")
               << (i + 1 == f->claims.size() ? "\n" : "");
        fr.text = os.str();
    }
    return run;
}

void
writeFiguresJson(std::ostream &os, const FiguresRun &run)
{
    os << "{\n\"schema\": \"dlvp-figures-v1\",\n\"cells\": " << run.cells
       << ",\n\"figures\": [";
    for (std::size_t i = 0; i < run.figures.size(); ++i) {
        const FigureRun &fr = run.figures[i];
        os << (i ? ",\n" : "\n") << "{\"name\": \""
           << common::jsonEscape(fr.figure->name) << "\"";
        if (!fr.figure->cells.configs.empty()) {
            os << ", \"sweep\": ";
            sim::writeSweepJson(os, fr.rows);
        }
        os << "}";
    }
    os << "\n],\n\"claims\": [";
    const char *sep = "\n";
    for (const FigureRun &fr : run.figures) {
        for (std::size_t i = 0; i < fr.figure->claims.size(); ++i) {
            const Claim &c = fr.figure->claims[i];
            os << sep << "{\"figure\": \""
               << common::jsonEscape(fr.figure->name) << "\", \"claim\": \""
               << common::jsonEscape(c.text) << "\", \"holds\": "
               << (fr.holds[i] ? "true" : "false") << ", \"expected\": \""
               << (c.expectHolds ? "holds" : "fails") << "\"";
            if (!c.expectHolds)
                os << ", \"reason\": \"" << common::jsonEscape(c.reason)
                   << "\"";
            os << "}";
            sep = ",\n";
        }
    }
    os << "\n]\n}\n";
}

} // namespace dlvp::bench
