// object_popularity.hpp — Zipf/heavy-tailed object popularity for the
// storage-layer workload generator.
//
// Real beamline archives are not accessed (or sized) uniformly: a few hot
// objects carry most of the bytes.  The staged-transfer generator models
// that by spreading the scan's frames across its files with rank-weighted
// shares w_k ∝ 1/(k+1)^s instead of an even split — s = 0 reproduces the
// historical uniform split bit-for-bit, larger s concentrates frames into
// the first files (one elephant plus a long tail of mice), which shifts
// the aggregation-wait and per-file-overhead balance the Fig. 4 family
// measures.
//
// Everything here is deterministic: weights and partitions are pure
// functions.
#pragma once

#include <cstdint>
#include <vector>

namespace sss::storage {

// Normalized popularity weights for `n` ranked objects at Zipf exponent
// `s >= 0`: weight[k] = (1/(k+1)^s) / H where H normalizes the sum to 1.
// s = 0 gives the uniform distribution.  n must be >= 1.
[[nodiscard]] std::vector<double> zipf_weights(std::uint64_t n, double s);

// Apportion `items` indivisible units across `bins` ranked bins with Zipf
// weights, every bin receiving at least one unit (requires
// items >= bins >= 1).  s = 0 reproduces the historical even split
// exactly: base = items / bins everywhere, the first items % bins bins
// get one extra.  s > 0 uses largest-remainder apportionment on top of
// the one-per-bin floor (ties broken toward lower ranks), so totals are
// conserved exactly.
[[nodiscard]] std::vector<std::uint64_t> zipf_partition(std::uint64_t items,
                                                        std::uint64_t bins, double s);

}  // namespace sss::storage
