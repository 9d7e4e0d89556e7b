/**
 * @file
 * Fixed-width table printing for the bench harnesses: every Figure/
 * Table binary prints the same rows/series the paper reports.
 */

#ifndef DLVP_SIM_REPORT_HH
#define DLVP_SIM_REPORT_HH

#include <ostream>
#include <string>
#include <variant>
#include <vector>

namespace dlvp::core
{
struct CoreStats;
}

namespace dlvp::sim
{

class Table
{
  public:
    using Cell = std::variant<std::string, double, long long>;

    explicit Table(std::string title);

    /** Column headers; call once before rows. */
    void columns(std::vector<std::string> names);

    void row(std::vector<Cell> cells);

    /** Precision for double cells (default 3). */
    void precision(int p) { precision_ = p; }

    void print(std::ostream &os) const;

  private:
    std::string title_;
    std::vector<std::string> cols_;
    std::vector<std::vector<Cell>> rows_;
    int precision_ = 3;

    static std::string render(const Cell &c, int precision);
};

/** Print "pct" as e.g. "+4.8%" (for speedups given as ratios). */
std::string pct(double ratio);

struct SweepResult;
struct JobOutcome;
struct SampleCell;
struct RunPerf;

/**
 * Interior JSON fields of one grid cell — the "status"/"attempts"
 * pair followed by either the stats object (ok/retried, with optional
 * sampling telemetry) or the structured error (failed/timeout).
 * Shared by writeSweepJson and the dlvp-serve daemon so served,
 * cached, and sweep-report rows all carry the identical dlvp-sweep-v1
 * cell schema. Does not touch stream formatting: callers that need
 * writeSweepJson's rendering set precision 12 on @p os first.
 */
void writeCellFieldsJson(std::ostream &os, const JobOutcome &outcome,
                         const core::CoreStats &stats,
                         const RunPerf &perf,
                         const SampleCell *sample = nullptr);

/** JSON string escaping used by every dlvp-*-v1 report writer. */
std::string jsonEscape(const std::string &s);

/**
 * Machine-readable sweep report (schema "dlvp-sweep-v1", documented
 * in DESIGN.md §"Parallel sweeps"): per-row cycles/ipc/coverage/
 * accuracy/speedup plus amean/geomean summaries, for tracking
 * BENCH_*.json trajectories across PRs. Each stats object also
 * carries host-side perf telemetry (wall_ms, mips, pages) so sweep
 * reports double as wall-clock trajectories (DESIGN.md §8).
 *
 * Fault tolerance (DESIGN.md §9): every row and cell carries a
 * "status" (ok / retried / failed / timeout); failed cells carry
 * "error_kind"/"error" instead of "stats", and the summary counts
 * "failed_jobs", so a partially failed grid is still a valid,
 * diffable report.
 */
void writeSweepJson(std::ostream &os, const SweepResult &r);

} // namespace dlvp::sim

#endif // DLVP_SIM_REPORT_HH
