// Key-access distributions used by the paper's evaluation (§7.1):
//   * Uniform — the low-contention baseline.
//   * Self-similar (Gray et al., "Quickly Generating Billion-Record
//     Synthetic Databases") with skew factor h: a fraction (1-h) of accesses
//     target the first h*N keys, recursively. The paper uses h = 0.2
//     ("80% of accesses target 20% of the keys").
//   * Zipfian (YCSB-style, Gray et al. §3.2) as an additional skew model.
//
// Each generator maps a per-thread PRNG draw to an index in [0, n).
// KeyDist names one of them with its parameter; KeySampler turns a KeyDist
// into a sampler. The index harness, the trace generator and the bench
// binaries' --dist flag pick keys through these two.
#ifndef OPTIQL_WORKLOAD_DISTRIBUTIONS_H_
#define OPTIQL_WORKLOAD_DISTRIBUTIONS_H_

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

#include "common/check.h"
#include "common/random.h"

namespace optiql {

class UniformDistribution {
 public:
  explicit UniformDistribution(uint64_t n) : n_(n) { OPTIQL_CHECK(n > 0); }

  uint64_t Next(Xoshiro256& rng) const { return rng.NextBounded(n_); }

 private:
  uint64_t n_;
};

class SelfSimilarDistribution {
 public:
  // skew = h in Gray et al.: (1-h) of the accesses hit the first h*n keys.
  SelfSimilarDistribution(uint64_t n, double skew)
      : n_(n), exponent_(std::log(skew) / std::log(1.0 - skew)) {
    OPTIQL_CHECK(n > 0);
    OPTIQL_CHECK(skew > 0.0 && skew < 0.5);
  }

  uint64_t Next(Xoshiro256& rng) const {
    const double u = rng.NextDouble();
    auto index = static_cast<uint64_t>(static_cast<double>(n_) *
                                       std::pow(u, exponent_));
    return index >= n_ ? n_ - 1 : index;
  }

 private:
  uint64_t n_;
  double exponent_;
};

class ZipfianDistribution {
 public:
  // Gray et al.'s approximate Zipf sampler: rank ~ n^U gives a 1/rank-ish
  // frequency law without precomputing harmonic sums over huge n.
  // theta in (0, 1); larger = more skew.
  ZipfianDistribution(uint64_t n, double theta)
      : n_(n),
        alpha_(1.0 / (1.0 - theta)),
        zetan_(Zeta(n, theta)),
        theta_(theta),
        eta_((1.0 - std::pow(2.0 / static_cast<double>(n), 1.0 - theta)) /
             (1.0 - Zeta(2, theta) / zetan_)) {
    OPTIQL_CHECK(n > 0);
    OPTIQL_CHECK(theta > 0.0 && theta < 1.0);
  }

  uint64_t Next(Xoshiro256& rng) const {
    // Standard YCSB rejection-free inversion (Gray et al. Fig. 6).
    const double u = rng.NextDouble();
    const double uz = u * zetan_;
    if (uz < 1.0) return 0;
    if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
    auto index = static_cast<uint64_t>(
        static_cast<double>(n_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return index >= n_ ? n_ - 1 : index;
  }

 private:
  // Truncated zeta: for large n an exact sum is too slow, so cap the terms;
  // the tail contribution is negligible for benchmark purposes.
  static double Zeta(uint64_t n, double theta) {
    const uint64_t terms = n < 10'000'000 ? n : 10'000'000;
    double sum = 0;
    for (uint64_t i = 1; i <= terms; ++i) {
      sum += 1.0 / std::pow(static_cast<double>(i), theta);
    }
    return sum;
  }

  uint64_t n_;
  double alpha_;
  double zetan_;
  double theta_;
  double eta_;
};

// A parsed key-access distribution choice: one spelling shared by the
// harness, the trace generator and every bench binary's --dist flag.
struct KeyDist {
  enum class Kind { kUniform, kZipfian, kSelfSimilar };
  Kind kind = Kind::kUniform;
  double skew = 0.0;  // Zipf theta / self-similar h; unused for uniform.

  static KeyDist Uniform() { return {Kind::kUniform, 0.0}; }
  static KeyDist Zipfian(double theta) { return {Kind::kZipfian, theta}; }
  static KeyDist SelfSimilar(double h) { return {Kind::kSelfSimilar, h}; }

  // "uniform" | "zipf" | "zipf:0.7" | "selfsimilar" | "selfsimilar:0.3".
  static bool Parse(const std::string& spec, KeyDist& out) {
    const size_t colon = spec.find(':');
    const std::string name = spec.substr(0, colon);
    const bool has_param = colon != std::string::npos;
    const double param =
        has_param ? std::strtod(spec.c_str() + colon + 1, nullptr) : 0.0;
    if (name == "uniform") {
      if (has_param) return false;
      out = Uniform();
    } else if (name == "zipf" || name == "zipfian") {
      out = Zipfian(has_param ? param : 0.99);
      if (out.skew <= 0.0 || out.skew >= 1.0) return false;
    } else if (name == "selfsimilar") {
      out = SelfSimilar(has_param ? param : 0.2);
      if (out.skew <= 0.0 || out.skew >= 0.5) return false;
    } else {
      return false;
    }
    return true;
  }

  std::string Name() const {
    char buf[32];
    switch (kind) {
      case Kind::kUniform:
        return "uniform";
      case Kind::kZipfian:
        std::snprintf(buf, sizeof(buf), "zipf:%.2f", skew);
        return buf;
      case Kind::kSelfSimilar:
        std::snprintf(buf, sizeof(buf), "selfsimilar:%.2f", skew);
        return buf;
    }
    return "?";
  }
};

// Materializes the sampler a KeyDist names over [0, records). Constructed
// once per run (the Zipf constructor sums a harmonic series over n) and
// shared read-only by the worker threads.
class KeySampler {
 public:
  KeySampler(const KeyDist& dist, uint64_t records) : uniform_(records) {
    if (dist.kind == KeyDist::Kind::kZipfian) {
      zipf_.emplace(records, dist.skew);
    } else if (dist.kind == KeyDist::Kind::kSelfSimilar) {
      selfsim_.emplace(records, dist.skew);
    }
  }

  uint64_t Next(Xoshiro256& rng) const {
    if (zipf_) return zipf_->Next(rng);
    if (selfsim_) return selfsim_->Next(rng);
    return uniform_.Next(rng);
  }

 private:
  UniformDistribution uniform_;
  std::optional<ZipfianDistribution> zipf_;
  std::optional<SelfSimilarDistribution> selfsim_;
};

}  // namespace optiql

#endif  // OPTIQL_WORKLOAD_DISTRIBUTIONS_H_
