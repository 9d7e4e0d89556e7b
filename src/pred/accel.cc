/**
 * @file
 * LoadAccelerator table. See accel.hh for the interface contract.
 */

#include "pred/accel.hh"

#include "common/run_error.hh"

namespace dlvp::pred
{

// Defined beside their adapters in accel_builtin.cc / accel_zoo.cc.
std::unique_ptr<LoadAccelerator> makeBalcvpAccel(const AccelParams &);
std::unique_ptr<LoadAccelerator> makeCapDlvpAccel(const AccelParams &);
std::unique_ptr<LoadAccelerator> makeDvtageAccel(const AccelParams &);
std::unique_ptr<LoadAccelerator> makeHermesAccel(const AccelParams &);
std::unique_ptr<LoadAccelerator> makeNoneAccel(const AccelParams &);
std::unique_ptr<LoadAccelerator> makePapDlvpAccel(const AccelParams &);
std::unique_ptr<LoadAccelerator>
makeStrideDlvpAccel(const AccelParams &);
std::unique_ptr<LoadAccelerator>
makeTournamentAccel(const AccelParams &);
std::unique_ptr<LoadAccelerator> makeVtageAccel(const AccelParams &);

namespace
{

// Ascending key order: list-predictors prints the rows as they stand,
// and AccelRegistry.CatalogConstructsEveryKey checks the order (which
// also rules out a duplicate key).
const AccelInfo kAccelerators[] = {
    {"balcvp",
     "BALCVP: last-committed-value + equality prediction, immune to "
     "in-flight conflicting stores",
     &makeBalcvpAccel},
    {"cap-dlvp",
     "DLVP microarchitecture with the CAP correlated address "
     "predictor (Bekerman+, ISCA 1999)",
     &makeCapDlvpAccel},
    {"dvtage",
     "D-VTAGE: last values + stride deltas (Perais & Seznec, HPCA "
     "2015)",
     &makeDvtageAccel},
    {"hermes",
     "Hermes-style perceptron off-chip filter gating a last value "
     "predictor (Bera+, MICRO 2022)",
     &makeHermesAccel},
    {"none", "no load acceleration (baseline core)", &makeNoneAccel},
    {"pap-dlvp",
     "DLVP: path-based address prediction + L1D probe (the paper)",
     &makePapDlvpAccel},
    {"stride-dlvp",
     "DLVP microarchitecture with a stride address predictor",
     &makeStrideDlvpAccel},
    {"tournament",
     "DLVP + VTAGE behind a per-PC tournament chooser (Figure 8)",
     &makeTournamentAccel},
    {"vtage",
     "VTAGE context-based value prediction (Perais & Seznec, HPCA "
     "2014)",
     &makeVtageAccel},
};

} // namespace

std::unique_ptr<LoadAccelerator>
makeAccelerator(const std::string &key, const AccelParams &params)
{
    for (const AccelInfo &info : kAccelerators)
        if (key == info.key)
            return info.factory(params);
    throw common::RunError(common::ErrorKind::Internal,
                           "unknown accelerator key '" + key + "'");
}

std::span<const AccelInfo>
acceleratorCatalog()
{
    return kAccelerators;
}

} // namespace dlvp::pred
