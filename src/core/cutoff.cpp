#include "core/cutoff.hpp"

#include <sstream>

namespace strassen::core {

namespace {

double dbl(index_t v) { return static_cast<double>(v); }

double dmul3(index_t m, index_t k, index_t n) {
  return dbl(m) * dbl(k) * dbl(n);
}

// Eq. (13): true when recursion is allowed.
bool parameterized_recurse(const CutoffCriterion& c, index_t m, index_t k,
                           index_t n) {
  const double lhs = dmul3(m, k, n);
  const double rhs = c.tau_m * dbl(n) * dbl(k) + c.tau_k * dbl(m) * dbl(n) +
                     c.tau_n * dbl(m) * dbl(k);
  return lhs > rhs;
}

}  // namespace

bool CutoffCriterion::stop(index_t m, index_t k, index_t n, int d) const {
  switch (kind) {
    case CutoffKind::op_count:
      // Eq. (7).
      return dmul3(m, k, n) <=
             4.0 * (dbl(m) * dbl(k) + dbl(k) * dbl(n) + dbl(m) * dbl(n));
    case CutoffKind::square_simple:
      // Eq. (11).
      return dbl(m) <= tau || dbl(k) <= tau || dbl(n) <= tau;
    case CutoffKind::higham_scaled:
      // Eq. (12).
      return dmul3(m, k, n) <=
             tau * (dbl(n) * dbl(k) + dbl(m) * dbl(n) + dbl(m) * dbl(k)) /
                 3.0;
    case CutoffKind::parameterized:
      return !parameterized_recurse(*this, m, k, n);
    case CutoffKind::hybrid: {
      // Eq. (15): stop iff
      //   ( !(13) and (m<=tau or k<=tau or n<=tau) ) or
      //   ( m<=tau and k<=tau and n<=tau ).
      const bool all_small = dbl(m) <= tau && dbl(k) <= tau && dbl(n) <= tau;
      if (all_small) return true;
      const bool any_small = dbl(m) <= tau || dbl(k) <= tau || dbl(n) <= tau;
      if (!any_small) return false;  // all large: always recurse
      return !parameterized_recurse(*this, m, k, n);
    }
    case CutoffKind::fixed_depth:
      return d >= depth;
    case CutoffKind::never_recurse:
    case CutoffKind::tuned:
      return true;
  }
  return true;
}

CutoffCriterion CutoffCriterion::op_count() {
  CutoffCriterion c;
  c.kind = CutoffKind::op_count;
  return c;
}

CutoffCriterion CutoffCriterion::square_simple(double tau) {
  CutoffCriterion c;
  c.kind = CutoffKind::square_simple;
  c.tau = tau;
  return c;
}

CutoffCriterion CutoffCriterion::higham_scaled(double tau) {
  CutoffCriterion c;
  c.kind = CutoffKind::higham_scaled;
  c.tau = tau;
  return c;
}

CutoffCriterion CutoffCriterion::parameterized(double tau_m, double tau_k,
                                               double tau_n) {
  CutoffCriterion c;
  c.kind = CutoffKind::parameterized;
  c.tau_m = tau_m;
  c.tau_k = tau_k;
  c.tau_n = tau_n;
  return c;
}

CutoffCriterion CutoffCriterion::hybrid(double tau, double tau_m, double tau_k,
                                        double tau_n) {
  CutoffCriterion c;
  c.kind = CutoffKind::hybrid;
  c.tau = tau;
  c.tau_m = tau_m;
  c.tau_k = tau_k;
  c.tau_n = tau_n;
  return c;
}

CutoffCriterion CutoffCriterion::fixed_depth(int depth) {
  CutoffCriterion c;
  c.kind = CutoffKind::fixed_depth;
  c.depth = depth;
  return c;
}

CutoffCriterion CutoffCriterion::never_recurse() {
  CutoffCriterion c;
  c.kind = CutoffKind::never_recurse;
  return c;
}

CutoffCriterion CutoffCriterion::tuned() {
  CutoffCriterion c;
  c.kind = CutoffKind::tuned;
  return c;
}

CutoffCriterion CutoffCriterion::paper_default(blas::Machine machine) {
  switch (machine) {
    case blas::Machine::rs6000:
      return hybrid(199.0, 75.0, 125.0, 95.0);
    case blas::Machine::c90:
      return hybrid(129.0, 80.0, 45.0, 20.0);
    case blas::Machine::t3d:
      return hybrid(325.0, 125.0, 75.0, 109.0);
  }
  return hybrid(199.0, 75.0, 125.0, 95.0);
}

std::string CutoffCriterion::describe() const {
  std::ostringstream ss;
  switch (kind) {
    case CutoffKind::op_count:
      ss << "op-count (eq. 7)";
      break;
    case CutoffKind::square_simple:
      ss << "simple (eq. 11), tau=" << tau;
      break;
    case CutoffKind::higham_scaled:
      ss << "Higham-scaled (eq. 12), tau=" << tau;
      break;
    case CutoffKind::parameterized:
      ss << "parameterized (eq. 13), tau_mkn=(" << tau_m << "," << tau_k << ","
         << tau_n << ")";
      break;
    case CutoffKind::hybrid:
      ss << "hybrid (eq. 15), tau=" << tau << ", tau_mkn=(" << tau_m << ","
         << tau_k << "," << tau_n << ")";
      break;
    case CutoffKind::fixed_depth:
      ss << "fixed depth " << depth;
      break;
    case CutoffKind::never_recurse:
      ss << "never recurse (DGEMM)";
      break;
    case CutoffKind::tuned:
      ss << "tuned (installed policy, else DGEMM)";
      break;
  }
  return ss.str();
}

}  // namespace strassen::core
