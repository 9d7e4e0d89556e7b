/**
 * @file
 * Named simulator configurations matching the paper's evaluated design
 * points (Table 4 plus the §5 sweeps) and the post-registry zoo
 * entries. Configurations are data — a name, a description, and a
 * parameter builder whose VpConfig::accel names the LoadAccelerator
 * table row it instantiates — enumerable by the CLI and checked
 * against the accelerator table by GoldenStats.PinsEveryAccelerator.
 */

#ifndef DLVP_SIM_CONFIGS_HH
#define DLVP_SIM_CONFIGS_HH

#include <string>
#include <vector>

#include "core/params.hh"

namespace dlvp::sim
{

/** One named design point of the predictor zoo. */
struct ConfigDesc
{
    const char *name;        ///< CLI / golden-table name
    const char *description; ///< one line, shown by list-configs
    core::VpConfig (*make)();
};

/** Every named configuration, in catalog (presentation) order. */
const std::vector<ConfigDesc> &configCatalog();

/**
 * Look up a configuration by name; returns false (leaving @p out
 * untouched) for unknown names.
 */
bool configByName(const std::string &name, core::VpConfig &out);

/**
 * Closest catalog name to @p name by edit distance, for did-you-mean
 * diagnostics; empty when nothing is plausibly close.
 */
std::string suggestConfig(const std::string &name);

/** Baseline core (Table 4); shared by every scheme. */
core::CoreParams baselineCore();

/** No value prediction. */
core::VpConfig baselineVp();

/** DLVP with PAP (the paper's proposal, §3). */
core::VpConfig dlvpConfig();

/** DLVP microarchitecture with the CAP address predictor (§5.2.3). */
core::VpConfig capConfig(unsigned confidence = 24);

/** VTAGE (static opcode filter, loads only — §5.2.2's best point). */
core::VpConfig vtageConfig();

/** VTAGE flavors for Figure 7. */
core::VpConfig vtageConfigWith(pred::VtageFilter filter,
                               bool loads_only);

/** DLVP + VTAGE tournament (Figure 8). */
core::VpConfig tournamentConfig();

/** DLVP with a computation-based stride address predictor (SS2.2). */
core::VpConfig strideDlvpConfig();

/** D-VTAGE (SS2.1): last-value table + stride deltas. */
core::VpConfig dvtageConfig();

/** Tournament with partitioned training (SS5.2.3 future work). */
core::VpConfig partitionedTournamentConfig();

/** BALCVP: last-committed-value + equality prediction. */
core::VpConfig balcvpConfig();

/** Hermes-style off-chip perceptron gating a last value predictor. */
core::VpConfig hermesConfig();

} // namespace dlvp::sim

#endif // DLVP_SIM_CONFIGS_HH
