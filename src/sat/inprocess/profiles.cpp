#include "sat/inprocess/profiles.h"

#include <cassert>

#include "sat/inprocess/features.h"

namespace bosphorus::sat::inprocess {

namespace {

// The four named configurations. Values follow the shape of CryptoMiniSat's
// reconf set: a middle-ground default, a patient deep-search profile for
// XOR-dense crypto instances, a rapid-restart profile for propagation-heavy
// over-constrained instances, and an aggressive-deletion profile for
// searches that flood the learnt DB with high-LBD clauses.
constexpr SolverProfile kProfiles[] = {
    // name            var    clause  rst  core mid viv-int growth
    {"balanced",       0.95,  0.999,  100, 3,   6,  6,      1.10},
    {"crypto-xor",     0.95,  0.999,  192, 4,   7,  4,      1.15},
    {"agile-restart",  0.85,  0.999,  32,  3,   5,  8,      1.08},
    {"heavy-tail",     0.95,  0.997,  100, 2,   4,  3,      1.03},
};

constexpr int kFirstNamed = static_cast<int>(ProfileId::kBalanced);

}  // namespace

const SolverProfile& profile(ProfileId id) {
    const int idx = static_cast<int>(id) - kFirstNamed;
    assert(idx >= 0 &&
           idx < static_cast<int>(sizeof(kProfiles) / sizeof(kProfiles[0])));
    if (idx < 0 || idx >= static_cast<int>(sizeof(kProfiles) / sizeof(kProfiles[0])))
        return kProfiles[0];
    return kProfiles[idx];
}

ProfileId select_profile(const InstanceFeatures& f) {
    // Hand-rolled decision list, evaluated top to bottom. Thresholds are
    // documented in docs/architecture.md; keep the two in sync.
    //
    // 1. XOR-dense instances (>= 5% of constraints are XOR rows) are the
    //    crypto workloads the paper targets: patient restarts, wide tier
    //    cuts.
    if (f.xor_density >= 0.05) return ProfileId::kCryptoXor;
    // 2. A high opening LBD says the search is learning junk: clamp the
    //    tiers down and vivify often.
    if (f.avg_first_window_lbd >= 12.0) return ProfileId::kHeavyTail;
    // 3. Heavily over-constrained, mostly short clauses: propagation does
    //    the work, so restart fast to keep it pointed somewhere useful.
    if (f.clause_var_ratio >= 6.0 && f.frac_long <= 0.2)
        return ProfileId::kAgileRestart;
    return ProfileId::kBalanced;
}

const char* profile_name(ProfileId id) {
    switch (id) {
        case ProfileId::kAuto: return "auto";
        case ProfileId::kFixed: return "fixed";
        default: return profile(id).name;
    }
}

bool profile_from_name(const std::string& name, ProfileId& id) {
    if (name == "auto") { id = ProfileId::kAuto; return true; }
    if (name == "fixed") { id = ProfileId::kFixed; return true; }
    for (int i = 0; i < static_cast<int>(sizeof(kProfiles) / sizeof(kProfiles[0])); ++i) {
        if (name == kProfiles[i].name) {
            id = static_cast<ProfileId>(kFirstNamed + i);
            return true;
        }
    }
    return false;
}

}  // namespace bosphorus::sat::inprocess
