// Exact rational arithmetic over 64-bit integers with 128-bit intermediate
// products and overflow detection. Used by the linear-program substrate
// (feasibility of P(R1,...,Rm) over the rationals, Lemma 2(3)) where
// floating point would make consistency decisions unsound.
#pragma once

#include <cstdint>
#include <string>

#include "util/result.h"

namespace bagc {

/// \brief Exact rational number p/q with q > 0, always in lowest terms.
///
/// Arithmetic goes through __int128 intermediates; results that do not fit
/// back into int64 numerator/denominator are reported as overflow rather
/// than silently wrapping. Default-constructed value is 0/1.
class Rational {
 public:
  Rational() : num_(0), den_(1) {}
  /// Integer n as n/1.
  explicit Rational(int64_t n) : num_(n), den_(1) {}

  /// Creates num/den reduced to lowest terms; den must be non-zero.
  static Result<Rational> Make(int64_t num, int64_t den);

  int64_t numerator() const { return num_; }
  int64_t denominator() const { return den_; }

  bool is_zero() const { return num_ == 0; }
  bool is_integer() const { return den_ == 1; }
  bool is_negative() const { return num_ < 0; }

  static Result<Rational> Add(const Rational& a, const Rational& b);
  static Result<Rational> Sub(const Rational& a, const Rational& b);
  static Result<Rational> Mul(const Rational& a, const Rational& b);
  /// a / b; errors when b is zero.
  static Result<Rational> Div(const Rational& a, const Rational& b);

  /// Exact three-way comparison (never overflows: uses 128-bit cross
  /// products).
  static int Compare(const Rational& a, const Rational& b);

  bool operator==(const Rational& o) const { return num_ == o.num_ && den_ == o.den_; }
  bool operator!=(const Rational& o) const { return !(*this == o); }
  bool operator<(const Rational& o) const { return Compare(*this, o) < 0; }
  bool operator<=(const Rational& o) const { return Compare(*this, o) <= 0; }
  bool operator>(const Rational& o) const { return Compare(*this, o) > 0; }
  bool operator>=(const Rational& o) const { return Compare(*this, o) >= 0; }

  /// "p/q", or "p" when integral.
  std::string ToString() const;

 private:
  int64_t num_;
  int64_t den_;  // > 0, gcd(|num_|, den_) == 1
};

}  // namespace bagc
