#pragma once
// Three-valued (0/1/X) logic for ATPG.  PODEM carries a good and a faulty
// machine over these values; a signal whose pair is (1,0) carries D, (0,1)
// carries D-bar.

#include <cstddef>
#include <cstdint>

#include "netlist/netlist.hpp"

namespace bist {

enum class Ternary : std::uint8_t { V0 = 0, V1 = 1, VX = 2 };

inline Ternary t_not(Ternary a) {
  if (a == Ternary::VX) return Ternary::VX;
  return a == Ternary::V0 ? Ternary::V1 : Ternary::V0;
}

/// Ternary value of a gate of type t over its n fanin values in(0..n-1),
/// read through an accessor so callers can evaluate in place (PODEM's
/// faulty machine reads good values outside the fault cone).
template <class In>
Ternary eval_ternary(GateType t, std::size_t n, In&& in) {
  using T = Ternary;
  switch (t) {
    case GateType::Input: return T::VX;
    case GateType::Const0: return T::V0;
    case GateType::Const1: return T::V1;
    case GateType::Buf: return in(0);
    case GateType::Not: return t_not(in(0));
    case GateType::And:
    case GateType::Nand:
    case GateType::Or:
    case GateType::Nor: {
      const bool and_like = t == GateType::And || t == GateType::Nand;
      const bool inverted = t == GateType::Nand || t == GateType::Nor;
      const T ctrl = and_like ? T::V0 : T::V1;
      bool any_x = false;
      for (std::size_t i = 0; i < n; ++i) {
        const T v = in(i);
        if (v == ctrl) return inverted ? t_not(ctrl) : ctrl;
        if (v == T::VX) any_x = true;
      }
      if (any_x) return T::VX;
      return inverted ? ctrl : t_not(ctrl);
    }
    case GateType::Xor:
    case GateType::Xnor: {
      bool parity = (t == GateType::Xnor);
      for (std::size_t i = 0; i < n; ++i) {
        const T v = in(i);
        if (v == T::VX) return T::VX;
        if (v == T::V1) parity = !parity;
      }
      return parity ? T::V1 : T::V0;
    }
  }
  return T::VX;
}

}  // namespace bist
