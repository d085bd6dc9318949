// Dense tensor kernels: GEMM variants, elementwise ops, activations,
// softmax cross-entropy, row gather/scatter.
//
// Every backward kernel is paired with its forward so the engine can build
// exact gradients for all four parallelization strategies. The row-window
// Matmul reads a prefix of a taller input in place (SageLayer's self term
// over the destination rows) with the bits of the plain call on a copy.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tensor/tensor.h"

namespace apt {

// ---------------------------------------------------------------------------
// GEMM. C = alpha * op(A) * op(B) + beta * C. Shapes are checked.
// ---------------------------------------------------------------------------

/// C[m,n] += A[m,k] * B[k,n]  (beta=0 overwrites).
void Matmul(const Tensor& a, const Tensor& b, Tensor& c, float alpha = 1.0f,
            float beta = 0.0f);
/// C[m,n] = A[row0 : row0 + m, :] * B[k,n], with m = C's rows: Matmul on a
/// window of A's rows, bit-identical to Matmul on a copy of them.
void Matmul(const Tensor& a, std::int64_t a_row0, const Tensor& b, Tensor& c);
/// C[m,n] = A[k,m]^T * B[k,n].
void MatmulTN(const Tensor& a, const Tensor& b, Tensor& c, float alpha = 1.0f,
              float beta = 0.0f);
/// C[m,n] = beta * C + alpha * sum_s A_s^T B_s, where segment s is rows
/// [segments[s], segments[s+1]) of both A[k,m] and B[k,n]. Bit-identical to
/// MatmulTN(A_0, B_0, C, alpha, beta) followed by MatmulTN(A_s, B_s, C,
/// alpha, 1) for each later segment in order (each segment's k-panels land
/// in the same sequence), but parallelized over C's rows once. Fewer than
/// two boundaries leave C untouched.
void SegmentedMatmulTN(const Tensor& a, const Tensor& b,
                       std::span<const std::int64_t> segments, Tensor& c,
                       float alpha = 1.0f, float beta = 0.0f);
/// C[m,n] = A[m,k] * B[n,k]^T.
void MatmulNT(const Tensor& a, const Tensor& b, Tensor& c, float alpha = 1.0f,
              float beta = 0.0f);

// ---------------------------------------------------------------------------
// Elementwise / rows.
// ---------------------------------------------------------------------------

/// y += alpha * x (shapes must match).
void Axpy(float alpha, const Tensor& x, Tensor& y);
/// x *= alpha.
void Scale(Tensor& x, float alpha);
/// out = a + b.
void Add(const Tensor& a, const Tensor& b, Tensor& out);
/// Adds bias (1 x cols) to every row of x in place.
void AddBiasRows(Tensor& x, const Tensor& bias);
/// grad_bias (1 x cols) = column sums of grad.
void BiasGradRows(const Tensor& grad, Tensor& grad_bias);

/// ReLU forward (in place allowed via out == &x semantics using copies).
void Relu(const Tensor& x, Tensor& out);
/// grad_x = grad_y * 1[x > 0].
void ReluBackward(const Tensor& x, const Tensor& grad_y, Tensor& grad_x);

/// Max |a - b| over all elements; shapes must match.
float MaxAbsDiff(const Tensor& a, const Tensor& b);

// ---------------------------------------------------------------------------
// Row gather / scatter (feature loading and shuffle packing).
// ---------------------------------------------------------------------------

/// out.row(i) = src.row(index[i]).
void GatherRows(const Tensor& src, std::span<const std::int64_t> index, Tensor& out);
/// dst.row(index[i]) += src.row(i).
void ScatterAddRows(const Tensor& src, std::span<const std::int64_t> index, Tensor& dst);

// ---------------------------------------------------------------------------
// Loss.
// ---------------------------------------------------------------------------

/// Softmax cross-entropy over rows of logits against integer labels.
/// Returns mean loss; fills grad (same shape as logits) with d(mean loss)/d logits
/// if grad != nullptr. `count_correct` (optional) gets the argmax-accuracy count.
float SoftmaxCrossEntropy(const Tensor& logits, std::span<const std::int64_t> labels,
                          Tensor* grad, std::int64_t* count_correct = nullptr);

}  // namespace apt
