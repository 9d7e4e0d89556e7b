#include "configs.hh"

#include <algorithm>
#include <cstddef>

namespace dlvp::sim
{

core::CoreParams
baselineCore()
{
    return core::CoreParams{};
}

core::VpConfig
baselineVp()
{
    core::VpConfig vp;
    vp.accel = "none";
    return vp;
}

core::VpConfig
dlvpConfig()
{
    core::VpConfig vp;
    vp.accel = "pap-dlvp";
    return vp;
}

core::VpConfig
capConfig(unsigned confidence)
{
    core::VpConfig vp;
    vp.accel = "cap-dlvp";
    vp.cap.confThreshold = confidence;
    return vp;
}

core::VpConfig
vtageConfig()
{
    return vtageConfigWith(pred::VtageFilter::Static, true);
}

core::VpConfig
vtageConfigWith(pred::VtageFilter filter, bool loads_only)
{
    core::VpConfig vp;
    vp.accel = "vtage";
    vp.vtage.filter = filter;
    vp.vtage.loadsOnly = loads_only;
    return vp;
}

core::VpConfig
strideDlvpConfig()
{
    core::VpConfig vp;
    vp.accel = "stride-dlvp";
    return vp;
}

core::VpConfig
dvtageConfig()
{
    core::VpConfig vp;
    vp.accel = "dvtage";
    return vp;
}

core::VpConfig
tournamentConfig()
{
    core::VpConfig vp;
    vp.accel = "tournament";
    return vp;
}

core::VpConfig
partitionedTournamentConfig()
{
    core::VpConfig vp;
    vp.accel = "tournament";
    vp.tournamentPartition = true;
    return vp;
}

core::VpConfig
balcvpConfig()
{
    core::VpConfig vp;
    vp.accel = "balcvp";
    return vp;
}

core::VpConfig
hermesConfig()
{
    core::VpConfig vp;
    vp.accel = "hermes";
    return vp;
}

const std::vector<ConfigDesc> &
configCatalog()
{
    static const std::vector<ConfigDesc> catalog = {
        {"baseline", "no value prediction (Table 4 core)", &baselineVp},
        {"dlvp", "the paper's DLVP: PAP address prediction + L1D probe",
         &dlvpConfig},
        {"cap", "DLVP microarchitecture with the CAP address predictor",
         [] { return capConfig(24); }},
        {"stride-dlvp",
         "DLVP with a computation-based stride address predictor",
         &strideDlvpConfig},
        {"vtage", "VTAGE, static opcode filter, loads only (SS5.2.2 best)",
         &vtageConfig},
        {"vtage-vanilla", "VTAGE, no confidence filter",
         [] {
             return vtageConfigWith(pred::VtageFilter::None, true);
         }},
        {"vtage-dynamic", "VTAGE with the dynamic confidence filter",
         [] {
             return vtageConfigWith(pred::VtageFilter::Dynamic, true);
         }},
        {"vtage-all", "VTAGE over all value-producing instructions",
         [] {
             return vtageConfigWith(pred::VtageFilter::Static, false);
         }},
        {"dvtage", "D-VTAGE: last-value table + stride deltas", &dvtageConfig},
        {"tournament", "DLVP + VTAGE behind a per-PC chooser (Figure 8)",
         &tournamentConfig},
        {"tournament-part",
         "tournament with partitioned VTAGE training (SS5.2.3)",
         &partitionedTournamentConfig},
        {"balcvp", "BALCVP last-committed-value + equality prediction",
         &balcvpConfig},
        {"hermes",
         "Hermes-style off-chip perceptron gating last-value "
         "prediction",
         &hermesConfig},
    };
    return catalog;
}

bool
configByName(const std::string &name, core::VpConfig &out)
{
    for (const ConfigDesc &c : configCatalog()) {
        if (name == c.name) {
            out = c.make();
            return true;
        }
    }
    return false;
}

namespace
{

std::size_t
editDistance(const std::string &a, const std::string &b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t prev = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const std::size_t cur = row[j];
            const std::size_t sub = a[i - 1] == b[j - 1] ? 0 : 1;
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, prev + sub});
            prev = cur;
        }
    }
    return row[b.size()];
}

} // namespace

std::string
suggestConfig(const std::string &name)
{
    std::string best;
    std::size_t best_dist = 0;
    for (const ConfigDesc &c : configCatalog()) {
        const std::size_t d = editDistance(name, c.name);
        if (best.empty() || d < best_dist) {
            best = c.name;
            best_dist = d;
        }
    }
    // A suggestion further than half the typed name away is noise.
    if (best_dist > std::max<std::size_t>(2, name.size() / 2))
        return {};
    return best;
}

} // namespace dlvp::sim
