#include "qbarren/exec/kernels.hpp"

#include "kernel_bodies.hpp"

namespace qbarren::exec {

// The loops below intentionally reproduce the StateVector kernels'
// structure (statevector.cpp) so both execution paths perform the same
// floating-point operations in the same order. Bounds are validated once
// at compile (lowering) time, not per application. The per-pair
// arithmetic lives in kernel_bodies.hpp, shared with the batched kernels.

using detail::cadd;
using detail::cmul;
using detail::Mat2Body;
using detail::pack;
using detail::raw;
using detail::RawC;

void apply_mat2(StateVector& state, const gates::Mat2& u,
                std::size_t target) {
  auto& amps = state.amplitudes();
  detail::for_each_pair(amps.data(), amps.size(), target, Mat2Body(u));
}

void apply_rotation_pair(StateVector& state, gates::Axis axis_first,
                         const gates::Mat2& u_first, gates::Axis axis_second,
                         const gates::Mat2& u_second, std::size_t target) {
  auto& amps = state.amplitudes();
  detail::with_rotation_body(axis_first, u_first, [&](const auto first) {
    detail::with_rotation_body(axis_second, u_second, [&](const auto second) {
      detail::for_each_pair(amps.data(), amps.size(), target,
                            detail::PairBody{first, second});
    });
  });
}

void apply_mat2_run(StateVector& state, const gates::Mat2* pool,
                    const std::uint32_t* indices, std::size_t count,
                    bool reverse, std::size_t target) {
  auto& amps = state.amplitudes();
  detail::for_each_pair(amps.data(), amps.size(), target,
                        detail::RunBody{pool, indices, count, reverse});
}

void apply_controlled_mat2(StateVector& state, const gates::Mat2& u,
                           std::size_t control, std::size_t target) {
  auto& amps = state.amplitudes();
  detail::for_each_controlled_pair(amps.data(), amps.size(), control, target,
                                   Mat2Body(u));
}

void apply_rotation(StateVector& state, gates::Axis axis, double theta,
                    std::size_t target) {
  apply_rotation_mat2(state, axis, gates::rotation_entries(axis, theta),
                      target);
}

void apply_rotation_mat2(StateVector& state, gates::Axis axis,
                         const gates::Mat2& u, std::size_t target) {
  auto& amps = state.amplitudes();
  detail::with_rotation_body(axis, u, [&](const auto body) {
    detail::for_each_pair(amps.data(), amps.size(), target, body);
  });
}

void apply_controlled_rotation(StateVector& state, gates::Axis axis,
                               double theta, std::size_t control,
                               std::size_t target) {
  apply_controlled_mat2(state, gates::rotation_entries(axis, theta), control,
                        target);
}

void apply_mat2_from(StateVector& dst, const StateVector& src,
                     const gates::Mat2& u, std::size_t target) {
  Complex* out = dst.amplitudes().data();
  const Complex* in = src.amplitudes().data();
  const Mat2Body body(u);
  detail::for_each_pair_index(
      src.dimension(), target, [&](std::size_t i0, std::size_t i1) {
        RawC a0 = raw(in[i0]);
        RawC a1 = raw(in[i1]);
        body(a0, a1);
        out[i0] = pack(a0);
        out[i1] = pack(a1);
      });
}

void apply_cz(StateVector& state, std::size_t qubit_a, std::size_t qubit_b) {
  Complex* amps = state.amplitudes().data();
  detail::for_each_index_matching(
      state.dimension(), qubit_a, true, qubit_b, true,
      [&](std::size_t i) { amps[i] = -amps[i]; });
}

void apply_cz_pair(StateVector& s1, StateVector& s2, std::size_t qubit_a,
                   std::size_t qubit_b) {
  apply_cz(s1, qubit_a, qubit_b);
  apply_cz(s2, qubit_a, qubit_b);
}

Complex inner_product_mat2(const StateVector& lambda, const StateVector& phi,
                           const gates::Mat2& u, std::size_t target) {
  const auto& l = lambda.amplitudes();
  const auto& in = phi.amplitudes();
  const RawC u00 = raw(u.m00);
  const RawC u01 = raw(u.m01);
  const RawC u10 = raw(u.m10);
  const RawC u11 = raw(u.m11);
  const std::size_t bit = std::size_t{1} << target;
  const std::size_t dim = in.size();
  // inner_product accumulates in ascending index order; within each block
  // of 2*bit indices that order is the bit-clear half followed by the
  // bit-set half, so the two inner loops below reproduce it exactly.
  RawC acc{0.0, 0.0};
  for (std::size_t base = 0; base < dim; base += 2 * bit) {
    for (std::size_t j = 0; j < bit; ++j) {
      const std::size_t i0 = base + j;
      const std::size_t i1 = i0 | bit;
      acc = cadd(acc, cmul(detail::conj(raw(l[i0])),
                           detail::mat2_row(u00, u01, raw(in[i0]),
                                            raw(in[i1]))));
    }
    for (std::size_t j = 0; j < bit; ++j) {
      const std::size_t i0 = base + j;
      const std::size_t i1 = i0 | bit;
      acc = cadd(acc, cmul(detail::conj(raw(l[i1])),
                           detail::mat2_row(u10, u11, raw(in[i0]),
                                            raw(in[i1]))));
    }
  }
  return pack(acc);
}

Complex adjoint_rotation_sweep(StateVector& phi, StateVector& lambda,
                               gates::Axis axis, const gates::Mat2& inv,
                               const gates::Mat2& dr, std::size_t target) {
  Complex* p = phi.amplitudes().data();
  Complex* l = lambda.amplitudes().data();
  const std::size_t bit = std::size_t{1} << target;
  const std::size_t dim = phi.dimension();
  RawC acc{0.0, 0.0};
  // Block structure as in inner_product_mat2: the bit-clear half of each
  // block precedes the bit-set half in index order, so accumulating the
  // row-0 terms in the first loop and the row-1 terms in the second
  // reproduces inner_product's ascending-index order. lambda's own update
  // happens only after both of its amplitudes fed the accumulator. The
  // inverse and the derivative have the rotation's shape, so both take the
  // axis body; each loop keeps one row of the derivative (the compiler
  // drops the other).
  detail::with_rotation_body(axis, inv, [&](const auto inv_body) {
    using Body = decltype(inv_body);
    const Body dr_body(dr);
    for (std::size_t base = 0; base < dim; base += 2 * bit) {
      for (std::size_t j = 0; j < bit; ++j) {
        const std::size_t i0 = base + j;
        const std::size_t i1 = i0 | bit;
        RawC a0 = raw(p[i0]);
        RawC a1 = raw(p[i1]);
        inv_body(a0, a1);
        p[i0] = pack(a0);
        p[i1] = pack(a1);
        dr_body(a0, a1);
        acc = cadd(acc, cmul(detail::conj(raw(l[i0])), a0));
      }
      for (std::size_t j = 0; j < bit; ++j) {
        const std::size_t i0 = base + j;
        const std::size_t i1 = i0 | bit;
        RawC a0 = raw(p[i0]);
        RawC a1 = raw(p[i1]);
        dr_body(a0, a1);
        acc = cadd(acc, cmul(detail::conj(raw(l[i1])), a1));
        RawC b0 = raw(l[i0]);
        RawC b1 = raw(l[i1]);
        inv_body(b0, b1);
        l[i0] = pack(b0);
        l[i1] = pack(b1);
      }
    }
  });
  return pack(acc);
}

void apply_mat4_from(StateVector& dst, const StateVector& src,
                     const Complex (&m)[4][4], std::size_t q_low,
                     std::size_t q_high) {
  RawC u[4][4];
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      u[r][c] = raw(m[r][c]);
    }
  }
  detail::for_each_quad(src.amplitudes().data(), dst.amplitudes().data(),
                        src.dimension(), u, q_low, q_high);
}

}  // namespace qbarren::exec
