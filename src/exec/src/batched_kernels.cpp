#include "qbarren/exec/batched_kernels.hpp"

#include "kernel_bodies.hpp"

namespace qbarren::exec {

// Every lane loop below runs the serial kernel's pair body (kernel_bodies.hpp,
// the same objects kernels.cpp uses) on that lane's amplitudes: identical
// pair enumeration, identical per-amplitude arithmetic. Lanes are
// independent, so looping them outside the serial body cannot change any
// per-lane value. The arithmetic contract — branch-free naive complex
// products equal to the finite-path std::complex product, axis-specialised
// rotation bodies that can only change the sign of a zero — is the serial
// one, stated in kernel_bodies.hpp and qbarren/exec/kernels.hpp; per-lane
// results are bit-identical to the serial kernels', with no numerics bump.

using detail::Mat2Body;
using detail::pack;
using detail::raw;
using detail::RawC;

namespace {

/// for_each_pair on two independent vectors in one pass: two dependency
/// chains in flight per pair. Each vector sees exactly the one-vector
/// expressions.
template <class Body>
void for_each_pair2(Complex* x, Complex* y, std::size_t dim,
                    std::size_t target, const Body body) {
  detail::for_each_pair_index(
      dim, target, [&](std::size_t i0, std::size_t i1) {
        RawC x0 = raw(x[i0]);
        RawC x1 = raw(x[i1]);
        RawC y0 = raw(y[i0]);
        RawC y1 = raw(y[i1]);
        body(x0, x1);
        body(y0, y1);
        x[i0] = pack(x0);
        x[i1] = pack(x1);
        y[i0] = pack(y0);
        y[i1] = pack(y1);
      });
}

/// One body on every lane in [0, lanes), two lanes per pass: their
/// updates are independent, which keeps two dependency chains in flight
/// per amplitude pair.
template <class Body>
void uniform_pairs(BatchedStateVector& batch, std::size_t lanes,
                   std::size_t target, const Body body) {
  const std::size_t dim = batch.dimension();
  std::size_t b = 0;
  for (; b + 1 < lanes; b += 2) {
    for_each_pair2(batch.lane_data(b), batch.lane_data(b + 1), dim, target,
                   body);
  }
  for (; b < lanes; ++b) {
    detail::for_each_pair(batch.lane_data(b), dim, target, body);
  }
}

}  // namespace

void batched_apply_mat2(BatchedStateVector& batch, std::size_t lanes,
                        const gates::Mat2& u, std::size_t target) {
  uniform_pairs(batch, lanes, target, Mat2Body(u));
}

void batched_apply_mat2_per_lane(BatchedStateVector& batch, std::size_t lanes,
                                 const gates::Mat2* entries,
                                 std::size_t target) {
  for (std::size_t b = 0; b < lanes; ++b) {
    detail::for_each_pair(batch.lane_data(b), batch.dimension(), target,
                          Mat2Body(entries[b]));
  }
}

void batched_apply_rotation_mat2(BatchedStateVector& batch, std::size_t lanes,
                                 gates::Axis axis, const gates::Mat2& u,
                                 std::size_t target) {
  detail::with_rotation_body(axis, u, [&](const auto body) {
    uniform_pairs(batch, lanes, target, body);
  });
}

void batched_apply_rotation_per_lane(BatchedStateVector& batch,
                                     std::size_t lanes, gates::Axis axis,
                                     const gates::Mat2* entries,
                                     std::size_t target) {
  for (std::size_t b = 0; b < lanes; ++b) {
    detail::with_rotation_body(axis, entries[b], [&](const auto body) {
      detail::for_each_pair(batch.lane_data(b), batch.dimension(), target,
                            body);
    });
  }
}

void batched_apply_rotation_pair(BatchedStateVector& batch, std::size_t lanes,
                                 gates::Axis axis_first,
                                 const gates::Mat2& u_first,
                                 gates::Axis axis_second,
                                 const gates::Mat2& u_second,
                                 std::size_t target) {
  detail::with_rotation_body(axis_first, u_first, [&](const auto first) {
    detail::with_rotation_body(axis_second, u_second, [&](const auto second) {
      uniform_pairs(batch, lanes, target, detail::PairBody{first, second});
    });
  });
}

void batched_apply_mat2_run(BatchedStateVector& batch, std::size_t lanes,
                            const gates::Mat2* pool,
                            const std::uint32_t* indices, std::size_t count,
                            bool reverse, std::size_t target) {
  for (std::size_t b = 0; b < lanes; ++b) {
    detail::for_each_pair(batch.lane_data(b), batch.dimension(), target,
                          detail::RunBody{pool, indices, count, reverse});
  }
}

void batched_apply_controlled_mat2(BatchedStateVector& batch,
                                   std::size_t lanes, const gates::Mat2& u,
                                   std::size_t control, std::size_t target) {
  const Mat2Body body(u);
  for (std::size_t b = 0; b < lanes; ++b) {
    detail::for_each_controlled_pair(batch.lane_data(b), batch.dimension(),
                                     control, target, body);
  }
}

void batched_apply_controlled_per_lane(BatchedStateVector& batch,
                                       std::size_t lanes,
                                       const gates::Mat2* entries,
                                       std::size_t control,
                                       std::size_t target) {
  for (std::size_t b = 0; b < lanes; ++b) {
    detail::for_each_controlled_pair(batch.lane_data(b), batch.dimension(),
                                     control, target, Mat2Body(entries[b]));
  }
}

void batched_apply_cz(BatchedStateVector& batch, std::size_t lanes,
                      std::size_t qubit_a, std::size_t qubit_b) {
  for (std::size_t b = 0; b < lanes; ++b) {
    Complex* amps = batch.lane_data(b);
    detail::for_each_index_matching(
        batch.dimension(), qubit_a, true, qubit_b, true,
        [&](std::size_t i) { amps[i] = -amps[i]; });
  }
}

void batched_apply_mat4(BatchedStateVector& batch, std::size_t lanes,
                        const ComplexMatrix& u, std::size_t q_low,
                        std::size_t q_high) {
  RawC m[4][4];
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 4; ++c) {
      m[r][c] = raw(u.at_unchecked(r, c));
    }
  }
  for (std::size_t b = 0; b < lanes; ++b) {
    Complex* amps = batch.lane_data(b);
    detail::for_each_quad(amps, amps, batch.dimension(), m, q_low, q_high);
  }
}

}  // namespace qbarren::exec
