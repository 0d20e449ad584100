// Interleaved A/B timing for the benches' overhead gates.
//
// Timing every A repetition before every B repetition reports host drift
// between the two blocks (frequency changes, a neighbour landing on the
// core) as B's cost. PairedRatio instead runs A and B back to back, once
// per pair, alternating which goes first, and decides on the median of the
// per-pair B/A ratios: drift slower than one pair cancels inside the ratio,
// and a pair hit by a burst of noise is outvoted by the others.
#pragma once

#include <algorithm>
#include <vector>

namespace lxfibench {

struct PairedResult {
  double a_ns = 0;      // median of A's repetitions
  double b_ns = 0;      // median of B's repetitions
  double ratio = 0;     // median of the per-pair B/A ratios
  std::vector<double> ratios;  // every pair's B/A, in run order
};

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n == 0 ? 0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// `time_a` and `time_b` each run one repetition and return its cost (any
// unit, the same for both). One unrecorded warm-up pair runs first.
template <typename TimeA, typename TimeB>
PairedResult PairedRatio(int pairs, TimeA&& time_a, TimeB&& time_b) {
  time_a();
  time_b();
  std::vector<double> as, bs;
  PairedResult r;
  for (int i = 0; i < pairs; ++i) {
    double a, b;
    if (i % 2 == 0) {
      a = time_a();
      b = time_b();
    } else {
      b = time_b();
      a = time_a();
    }
    as.push_back(a);
    bs.push_back(b);
    r.ratios.push_back(b / a);
  }
  r.a_ns = Median(as);
  r.b_ns = Median(bs);
  r.ratio = Median(r.ratios);
  return r;
}

}  // namespace lxfibench
