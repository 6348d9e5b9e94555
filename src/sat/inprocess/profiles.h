// Named solver configurations and the feature-driven selection rule.
//
// CryptoMiniSat ships dozens of "reconf" configurations and a trained
// predictor (scripts/reconf.py) that maps cheap instance features onto
// one of them. We reproduce the shape with a hand-rolled decision rule
// over four named profiles -- no ML dependency, fully deterministic, so
// warm-Session trajectories stay replayable. A profile bundles the
// search knobs (restart pacing, activity decay) with the in-processing
// knobs (learnt-DB tier cuts, vivification cadence) that
// clause_db.h/vivifier.h consume. The vivification budget is not a
// profile knob: every profile spends the same share of its own search
// effort (InprocessConfig::vivify_effort).
#pragma once

#include <cstdint>
#include <string>

namespace bosphorus::sat::inprocess {

struct InstanceFeatures;

/// The selectable configurations. kFixed means "use the Solver::Config
/// knobs exactly as given" (this is also the numeric behaviour of a
/// pre-in-processing solver); kAuto re-runs the decision rule at every
/// solve call.
enum class ProfileId : uint8_t {
    kAuto = 0,      ///< select_profile() decides, re-evaluated per solve
    kFixed,         ///< honour the explicit Solver::Config knobs
    kBalanced,      ///< the paper-default middle ground
    kCryptoXor,     ///< XOR-dense crypto instances: patient, deep search
    kAgileRestart,  ///< propagation-heavy instances: rapid restarts
    kHeavyTail,     ///< learnt-clause floods: aggressive DB management
};

/// One named configuration: every knob a profile may override. kFixed is
/// represented by *not* applying a profile, so every field here is
/// concrete.
struct SolverProfile {
    const char* name;      ///< stable CLI-facing identifier
    double var_decay;      ///< EVSIDS decay factor
    double clause_decay;   ///< learnt clause activity decay
    int restart_base;      ///< Luby restart unit (conflicts)
    uint32_t core_lbd_cut; ///< LBD <= this: core tier, never deleted
    uint32_t mid_lbd_cut;  ///< LBD <= this: mid tier, survival-protected
    uint32_t vivify_restart_interval;  ///< vivify every Nth restart
    double local_cap_growth;  ///< local-tier cap growth per reduction
};

/// The table entry for a *named* profile (kBalanced..kHeavyTail).
/// kAuto/kFixed have no table entry; passing them is a programming error
/// (asserts in debug, returns kBalanced's entry in release).
const SolverProfile& profile(ProfileId id);

/// The hand-rolled decision rule (the reconf.py stand-in): map cheap
/// instance features onto one of the four named profiles. Deterministic;
/// documented in docs/architecture.md ("In-processing").
ProfileId select_profile(const InstanceFeatures& f);

/// Stable name for any ProfileId ("auto", "fixed", "balanced", ...).
const char* profile_name(ProfileId id);

/// Parse a profile name as accepted by --sat-profile. Returns false on an
/// unknown name (id is left untouched).
bool profile_from_name(const std::string& name, ProfileId& id);

}  // namespace bosphorus::sat::inprocess
