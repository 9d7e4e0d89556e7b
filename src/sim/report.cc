#include "report.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "sim/sweep.hh"

namespace dlvp::sim
{

Table::Table(std::string title) : title_(std::move(title)) {}

void
Table::columns(std::vector<std::string> names)
{
    cols_ = std::move(names);
}

void
Table::row(std::vector<Cell> cells)
{
    rows_.push_back(std::move(cells));
}

std::string
Table::render(const Cell &c, int precision)
{
    if (const auto *s = std::get_if<std::string>(&c))
        return *s;
    if (const auto *d = std::get_if<double>(&c)) {
        std::ostringstream os;
        os << std::fixed << std::setprecision(precision) << *d;
        return os.str();
    }
    return std::to_string(std::get<long long>(c));
}

void
Table::print(std::ostream &os) const
{
    os << "\n== " << title_ << " ==\n";
    std::vector<std::size_t> widths(cols_.size());
    for (std::size_t i = 0; i < cols_.size(); ++i)
        widths[i] = cols_[i].size();
    std::vector<std::vector<std::string>> rendered;
    rendered.reserve(rows_.size());
    for (const auto &r : rows_) {
        std::vector<std::string> rr;
        for (std::size_t i = 0; i < r.size(); ++i) {
            rr.push_back(render(r[i], precision_));
            if (i < widths.size())
                widths[i] = std::max(widths[i], rr.back().size());
        }
        rendered.push_back(std::move(rr));
    }
    for (std::size_t i = 0; i < cols_.size(); ++i)
        os << std::left << std::setw(static_cast<int>(widths[i]) + 2)
           << cols_[i];
    os << "\n";
    for (std::size_t i = 0; i < cols_.size(); ++i)
        os << std::string(widths[i], '-') << "  ";
    os << "\n";
    for (const auto &rr : rendered) {
        for (std::size_t i = 0; i < rr.size(); ++i) {
            const std::size_t w = i < widths.size() ? widths[i]
                                                    : rr[i].size();
            os << std::left << std::setw(static_cast<int>(w) + 2)
               << rr[i];
        }
        os << "\n";
    }
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            out += ' ';
        else
            out += c;
    }
    return out;
}

namespace
{

void
jsonStats(std::ostream &os, const core::CoreStats &s,
          const RunPerf &perf)
{
    os << "{\"cycles\": " << s.cycles
       << ", \"committed_insts\": " << s.committedInsts
       << ", \"ipc\": " << s.ipc()
       << ", \"coverage\": " << s.coverage()
       << ", \"accuracy\": " << s.accuracy()
       << ", \"vp_flushes\": " << s.vpFlushes
       << ", \"wall_ms\": " << perf.wallMs
       << ", \"mips\": " << perf.mips
       << ", \"pages\": " << perf.pagesTouched
       << ", \"cycles_skipped\": " << perf.cyclesSkipped << "}";
}

} // namespace

/**
 * Interior fields of one grid cell: its fault status, then either the
 * usual stats object (ok/retried) or the structured error (failed/
 * timeout). Partial grids stay reportable, and consumers can tell
 * "slow" (low mips) from "dead" (status != ok).
 */
void
writeCellFieldsJson(std::ostream &os, const JobOutcome &outcome,
                    const core::CoreStats &s, const RunPerf &perf,
                    const SampleCell *sample)
{
    os << "\"status\": \"" << jobStatusName(outcome.status)
       << "\", \"attempts\": " << outcome.attempts;
    if (outcome.ok()) {
        os << ", \"stats\": ";
        jsonStats(os, s, perf);
        if (sample != nullptr) {
            os << ", \"sample\": {\"intervals\": "
               << sample->intervals
               << ", \"sampled_insts\": " << sample->sampledInsts;
            if (sample->cpiError >= 0.0)
                os << ", \"cpi_error\": " << sample->cpiError;
            os << "}";
        }
    } else {
        os << ", \"error_kind\": \""
           << common::errorKindName(outcome.errorKind)
           << "\", \"error\": \"" << jsonEscape(outcome.error)
           << "\"";
    }
}

void
writeSweepJson(std::ostream &os, const SweepResult &r)
{
    std::ostringstream body;
    body << std::setprecision(12);
    body << "{\n  \"schema\": \"dlvp-sweep-v1\",\n";
    body << "  \"insts\": " << r.insts << ",\n";
    if (r.sample.enabled) {
        body << "  \"sample\": {\"warmup_insts\": "
             << r.sample.warmupInsts
             << ", \"measure_insts\": " << r.sample.measureInsts
             << ", \"period_insts\": " << r.sample.periodInsts
             << ", \"check\": "
             << (r.sample.check ? "true" : "false") << "},\n";
    }
    body << "  \"configs\": [";
    for (std::size_t i = 0; i < r.configNames.size(); ++i)
        body << (i ? ", " : "") << '"'
             << jsonEscape(r.configNames[i]) << '"';
    body << "],\n  \"rows\": [\n";
    for (std::size_t wi = 0; wi < r.rows.size(); ++wi) {
        const auto &row = r.rows[wi];
        body << "    {\"workload\": \"" << jsonEscape(row.workload)
             << "\", \"status\": \"" << jobStatusName(row.status())
             << "\", \"baseline\": {";
        writeCellFieldsJson(body, row.baselineOutcome, row.baseline,
                            row.baselinePerf,
                            r.sample.enabled ? &row.baselineSample
                                             : nullptr);
        body << "}, \"results\": [";
        for (std::size_t ci = 0; ci < row.results.size(); ++ci) {
            body << (ci ? ", " : "") << "{\"config\": \""
                 << jsonEscape(r.configNames[ci]) << "\", ";
            // A speedup needs both the baseline and the config cell.
            if (row.cellOk(ci))
                body << "\"speedup\": "
                     << speedup(row.baseline, row.results[ci])
                     << ", ";
            writeCellFieldsJson(body, row.outcomes[ci],
                                row.results[ci], row.perf[ci],
                                r.sample.enabled &&
                                        ci < row.samples.size()
                                    ? &row.samples[ci]
                                    : nullptr);
            body << "}";
        }
        body << "]}" << (wi + 1 < r.rows.size() ? "," : "") << "\n";
    }
    body << "  ],\n  \"summary\": {\"failed_jobs\": "
         << r.failedJobs() << ", \"amean_speedup\": [";
    for (std::size_t ci = 0; ci < r.configNames.size(); ++ci)
        body << (ci ? ", " : "") << r.meanSpeedup(ci);
    body << "], \"geomean_speedup\": [";
    for (std::size_t ci = 0; ci < r.configNames.size(); ++ci)
        body << (ci ? ", " : "") << r.geomeanSpeedup(ci);
    body << "]}\n}\n";
    os << body.str();
}

std::string
pct(double ratio)
{
    std::ostringstream os;
    const double p = (ratio - 1.0) * 100.0;
    os << std::showpos << std::fixed << std::setprecision(1) << p
       << "%";
    return os.str();
}

} // namespace dlvp::sim
