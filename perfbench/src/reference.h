// The reference clock: a fixed piece of work owned by the benchmark, timed
// between the queries (or the load rounds) of a run, that tells how fast
// the host ran while the run was measured.
//
// A shared host's speed drifts by tens of percent over minutes, and every
// query of a run feels the same drift, so the wall times of two runs of
// the same code differ by that much. The end-to-end times are therefore
// reported at reference speed: each is scaled by
// kReferenceSeconds / (the median time of the reference kernel in this
// run). The kernel is the benchmark's own code and never calls into the
// library, so a change to the library's speed moves the scaled times as
// it moves the raw ones. One exception: a change that makes the library
// touch far more memory evicts the kernel's data between samples and
// slows it a little, so a small part of such a change's cost is scaled
// away. The raw values are printed as a `#` note.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/timer.h"

namespace perfbench {

/// The kernel's median time on the machine the benchmark was written on
/// (4-vCPU Xeon VM): one reference second is one wall second there.
constexpr double kReferenceSeconds = 0.008;

class ReferenceClock {
public:
    /// Build the kernel's fixed inputs and run a few warm-up samples.
    ReferenceClock();

    /// Run the kernel once and record its wall time.
    double sample();

    /// Run the kernel as often as it is owed -- once per `every_s` of wall
    /// time since the last call -- and return the time that took, so a
    /// caller can keep it out of what it measures.
    double catch_up(double every_s = 0.15);

    /// Multiply a time by this to express it at reference speed.
    double scale() const { return scale_since(0); }
    /// The same, from the samples taken since sample number `first` only.
    double scale_since(size_t first) const;
    /// Median kernel time so far, and the sample count.
    double median_s() const;
    size_t samples() const { return times_.size(); }

private:
    /// Sorted-list symmetric differences, hash-map traffic, a small dense
    /// GF(2) elimination, row additions streamed over a 4 MiB matrix and
    /// a pointer walk over 4 MiB: the shapes of the library's ANF and SAT
    /// layers, on fixed inputs.
    uint64_t kernel();

    std::vector<std::vector<uint32_t>> lists_;
    std::vector<uint64_t> keys_;
    std::vector<uint64_t> rows_;
    std::vector<uint64_t> wide_;
    size_t pivot_ = 0;
    std::vector<uint32_t> next_;
    uint32_t walk_ = 0;
    std::vector<double> times_;
    bosphorus::Timer since_;
};

}  // namespace perfbench
