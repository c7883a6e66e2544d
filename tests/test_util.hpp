#pragma once

/// \file test_util.hpp
/// Shared helpers for the test suite: tolerant comparisons and randomized
/// Kalman-problem generators that exercise every structural feature the
/// paper supports (varying dimensions, rectangular H, missing observations,
/// dense/diagonal/identity covariances, no prior).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/filter.hpp"
#include "kalman/cov_factor.hpp"
#include "kalman/model.hpp"
#include "la/blas.hpp"
#include "la/matrix.hpp"
#include "la/qr.hpp"
#include "la/random.hpp"

namespace pitk::test {

using kalman::CovFactor;
using kalman::Evolution;
using kalman::Observation;
using kalman::Problem;
using kalman::TimeStep;
using la::index;
using la::Matrix;
using la::Rng;
using la::Vector;

inline void expect_near(la::ConstMatrixView a, la::ConstMatrixView b, double tol,
                        const std::string& what = "matrix") {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  const double d = la::max_abs_diff(a, b);
  EXPECT_LE(d, tol) << what << ": max abs diff " << d;
}

inline void expect_near(std::span<const double> a, std::span<const double> b, double tol,
                        const std::string& what = "vector") {
  ASSERT_EQ(a.size(), b.size()) << what;
  const double d = la::max_abs_diff(a, b);
  EXPECT_LE(d, tol) << what << ": max abs diff " << d;
}

inline void expect_means_near(const std::vector<Vector>& a, const std::vector<Vector>& b,
                              double tol, const std::string& what = "means") {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    expect_near(a[i].span(), b[i].span(), tol, what + "[" + std::to_string(i) + "]");
}

inline void expect_covs_near(const std::vector<Matrix>& a, const std::vector<Matrix>& b,
                             double tol, const std::string& what = "covs") {
  ASSERT_EQ(a.size(), b.size()) << what;
  for (std::size_t i = 0; i < a.size(); ++i)
    expect_near(a[i].view(), b[i].view(), tol, what + "[" + std::to_string(i) + "]");
}

/// Feature switches for the randomized generator.
struct RandomProblemSpec {
  index k = 10;             ///< number of evolutions
  index n_min = 2;          ///< state dims drawn from [n_min, n_max]
  index n_max = 4;
  bool varying_dims = false;
  bool rectangular_h = false;   ///< tall H blocks (dimension changes)
  double obs_probability = 1.0; ///< chance each step is observed
  bool dense_covariances = false;
  bool diagonal_covariances = false;
  bool with_control = true;
  double covariance_condition = 10.0;
  /// Guarantee well-posedness by always observing step 0 with a full-rank G.
  bool anchor_first_state = true;
};

inline CovFactor random_cov(Rng& rng, index n, const RandomProblemSpec& spec) {
  if (spec.dense_covariances) return CovFactor::dense(la::random_spd(rng, n, spec.covariance_condition));
  if (spec.diagonal_covariances) {
    Vector v(n);
    for (index i = 0; i < n; ++i) v[i] = rng.uniform(0.2, 2.0);
    return CovFactor::diagonal(std::move(v));
  }
  return CovFactor::identity(n);
}

/// A random well-posed smoothing problem exercising the requested features.
inline Problem random_problem(Rng& rng, const RandomProblemSpec& spec) {
  auto dim = [&](index) {
    return spec.varying_dims ? spec.n_min + static_cast<index>(rng.below(
                                   static_cast<std::uint64_t>(spec.n_max - spec.n_min + 1)))
                             : spec.n_max;
  };
  std::vector<TimeStep> steps(static_cast<std::size_t>(spec.k + 1));
  index n_prev = dim(0);
  for (index i = 0; i <= spec.k; ++i) {
    TimeStep& s = steps[static_cast<std::size_t>(i)];
    const index n = i == 0 ? n_prev : dim(i);
    s.n = n;
    if (i > 0) {
      Evolution e;
      if (spec.rectangular_h) {
        // A tall H (l = n + 1) keeps the evolution over-determined and
        // exercises the rectangular-H code path only QR smoothers support.
        const index l = n + 1;
        e.H = la::random_orthonormal(rng, l, n);
        e.F = la::random_gaussian(rng, l, n_prev);
        la::scale(0.5, e.F.view());
        e.noise = random_cov(rng, l, spec);
        if (spec.with_control) e.c = la::random_gaussian_vector(rng, l);
      } else {
        // Orthonormal F keeps trajectories bounded (the paper's benchmark
        // choice); fall back to damped Gaussian when dimensions change.
        e.F = (n == n_prev) ? la::random_orthonormal(rng, n)
                            : la::random_gaussian(rng, n, n_prev);
        if (n != n_prev) la::scale(0.5, e.F.view());
        e.noise = random_cov(rng, n, spec);
        if (spec.with_control) e.c = la::random_gaussian_vector(rng, n);
      }
      s.evolution = std::move(e);
    }
    const bool observe =
        (i == 0 && spec.anchor_first_state) || rng.uniform() < spec.obs_probability;
    if (observe) {
      Observation ob;
      const index m = (i == 0 && spec.anchor_first_state)
                          ? n
                          : 1 + static_cast<index>(rng.below(static_cast<std::uint64_t>(n)));
      ob.G = la::random_gaussian(rng, m, n);
      if (m == n && i == 0) ob.G = la::random_orthonormal(rng, n);  // full-rank anchor
      ob.o = la::random_gaussian_vector(rng, m);
      ob.noise = random_cov(rng, m, spec);
      s.observation = std::move(ob);
    }
    n_prev = n;
  }
  return Problem::from_steps(std::move(steps));
}

/// A random problem in the "common denominator" class every smoother family
/// supports: H = I, constant dimension, observation at every step, with a
/// prior folded in as a step-0 observation for the QR methods.
struct CommonProblem {
  Problem for_qr;               ///< prior included as an observation
  Problem for_conventional;     ///< plain problem (prior passed separately)
  kalman::GaussianPrior prior;
};

inline CommonProblem common_problem(Rng& rng, index n, index k, bool dense_cov = false) {
  RandomProblemSpec spec;
  spec.k = k;
  spec.n_min = spec.n_max = n;
  spec.obs_probability = 0.8;
  spec.dense_covariances = dense_cov;
  spec.anchor_first_state = false;
  Problem p = random_problem(rng, spec);
  // Drop any step-0 observation so the prior is the only anchor; this keeps
  // the RTS/associative and QR formulations exactly equivalent.
  p.step(0).observation.reset();

  CommonProblem cp;
  cp.prior.mean = la::random_gaussian_vector(rng, n);
  cp.prior.cov = la::random_spd(rng, n, 4.0);
  cp.for_conventional = p;
  cp.for_qr = kalman::with_prior_observation(p, cp.prior);
  return cp;
}

/// A streaming factor extended by appended blocks, as a re-smoothing session
/// sees it.  `before` is the spliced factor after k0 strongly damped steps
/// (F = 0.5 I, unit noise, a random unit observation of every state);
/// `after` is `before` spliced forward by `appended` more steps, so its
/// blocks below k0 are unchanged; `decay_amp` holds the filter's decay
/// bounds for `after`.
struct ExtendedFactor {
  kalman::BidiagonalFactor before;
  kalman::BidiagonalFactor after;
  std::vector<double> decay_amp;
};

inline ExtendedFactor extended_factor(Rng& rng, index n, index k0, index appended) {
  kalman::IncrementalFilter filt(n);
  auto step = [&](bool first) {
    if (!first) {
      Matrix f = Matrix::identity(n);
      for (index q = 0; q < n; ++q) f(q, q) = 0.5;
      filt.evolve(std::move(f), Vector(n), CovFactor::identity(n));
    }
    filt.observe(Matrix::identity(n), la::random_gaussian_vector(rng, n), CovFactor::identity(n));
  };
  ExtendedFactor ef;
  la::QrScratch qr;
  for (index i = 0; i <= k0; ++i) step(i == 0);
  filt.resmooth_from(0, ef.before, qr);
  for (index i = 0; i < appended; ++i) step(false);
  ef.after = ef.before;
  filt.resmooth_from(k0, ef.after, qr);
  const std::span<const double> amps = filt.decay_amplification();
  ef.decay_amp.assign(amps.begin(), amps.end());
  return ef;
}

}  // namespace pitk::test
