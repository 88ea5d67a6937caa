// Minimal reverse-mode automatic differentiation over dense matrices.
//
// The paper's criterion gradients are closed-form (core/lkp.cc), but its
// neural backbones (GCN propagation, NeuMF's MLP, GCMC's graph
// auto-encoder) need backpropagation through several layers. This tape
// covers exactly that: a Graph is built fresh per training instance (or
// batch), values are computed eagerly on construction, and Backward()
// accumulates gradients from caller-supplied seed gradients — which is
// how the externally computed criterion gradients (dLoss/dScore,
// dLoss/dEmbedding) are injected.
//
// Nodes are created in topological order by construction, so the
// backward pass is a simple reverse sweep. No graph reuse, no shape
// polymorphism: everything is a Matrix (vectors are m x 1).
//
// Data-parallel training: parameter leaves reference the Param's value
// in place (no copy), so many graphs over the same parameters can be
// built concurrently as long as nobody mutates the values. A graph
// constructed with a GradientWorkspace routes every parameter-gradient
// contribution into that workspace instead of the shared Param::grad
// accumulators, so each worker thread writes only its own buffers; the
// trainer then reduces the workspaces into the Params in a fixed
// instance order (see opt/parallel_batch.h), which keeps training
// bit-identical at any thread count.

#ifndef LKPDPP_AUTODIFF_GRAPH_H_
#define LKPDPP_AUTODIFF_GRAPH_H_

#include <algorithm>
#include <cstddef>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "linalg/matrix.h"
#include "linalg/sparse.h"

namespace lkpdpp::ad {

class Graph;

/// Lightweight handle to a graph node.
struct Tensor {
  int id = -1;
  Graph* graph = nullptr;

  bool valid() const { return graph != nullptr && id >= 0; }
  const Matrix& value() const;
  int rows() const { return value().rows(); }
  int cols() const { return value().cols(); }
};

/// A trainable parameter: value plus gradient accumulator, owned by the
/// model (not the graph), so parameters persist across batches.
struct Param {
  std::string name;
  Matrix value;
  Matrix grad;

  Param(std::string n, Matrix v)
      : name(std::move(n)), value(std::move(v)),
        grad(value.rows(), value.cols()) {}

  /// Zeroes the grad in place; reallocates only when the value's shape
  /// changed since the grad was last sized.
  void ZeroGrad() {
    if (grad.rows() == value.rows() && grad.cols() == value.cols()) {
      std::fill(grad.data(),
                grad.data() + static_cast<size_t>(grad.rows()) *
                                  static_cast<size_t>(grad.cols()),
                0.0);
    } else {
      grad = Matrix(value.rows(), value.cols());
    }
  }
};

/// Private per-thread gradient sink.
///
/// Instead of accumulating into the shared Param::grad matrices, a graph
/// bound to a workspace records every parameter-gradient contribution as
/// an entry in a chronological log: either a dense block (full parameter
/// shape) or a row scatter (the GatherRows / SliceRows backward paths),
/// so a training instance that only touches a handful of embedding rows
/// never allocates a dense embedding-sized buffer.
///
/// FlushIntoParams() replays the log into the Params' own grad
/// accumulators in arrival order. Because entries are replayed
/// individually (not pre-reduced), flushing N instance workspaces in a
/// fixed instance order performs exactly the same elementary additions,
/// in exactly the same order, as one backward sweep over a single graph
/// holding those instances — so the reduction is bit-identical to the
/// serial path at any thread count.
class GradientWorkspace {
 public:
  GradientWorkspace() = default;
  GradientWorkspace(GradientWorkspace&&) = default;
  GradientWorkspace& operator=(GradientWorkspace&&) = default;
  GradientWorkspace(const GradientWorkspace&) = delete;
  GradientWorkspace& operator=(const GradientWorkspace&) = delete;

  /// Records grad(param) += g (shape must match the param). Takes the
  /// matrix by value so backward closures can move freshly computed
  /// gradients into the log without an extra copy.
  void AccumulateDense(Param* param, Matrix g);

  /// Records grad(param).row(rows[r]) += up.row(r) for each r. Takes
  /// the matrix by value so the caller can move a dead buffer in.
  void AccumulateRows(Param* param, const std::vector<int>& rows,
                      Matrix up);

  /// Replays the log into each entry's Param::grad, in arrival order.
  /// May be called repeatedly (e.g. after Clear + reuse).
  void FlushIntoParams() const;

  bool empty() const { return entries_.empty(); }
  void Clear() { entries_.clear(); }

 private:
  struct Entry {
    Param* param = nullptr;
    /// Empty: `data` is a dense block of the param's full shape.
    /// Otherwise: `data` has rows.size() rows scattered to these rows.
    std::vector<int> rows;
    Matrix data;
  };
  std::vector<Entry> entries_;
};

/// One computation tape. Build, read values, call Backward once.
class Graph {
 public:
  Graph() = default;
  /// All parameter gradients produced by Backward go into `workspace`
  /// (which must outlive the graph) instead of Param::grad.
  explicit Graph(GradientWorkspace* workspace) : workspace_(workspace) {}
  Graph(const Graph&) = delete;
  Graph& operator=(const Graph&) = delete;

  /// Leaf with no gradient.
  Tensor Constant(Matrix value);

  /// Leaf bound to an external parameter; the node references
  /// `param->value` in place (no copy), so the param must outlive the
  /// graph and its value must not be mutated while the graph is alive.
  /// Backward accumulates into `param->grad` (or the workspace).
  Tensor Parameter(Param* param);

  /// out.row(i) = input.row(rows[i]); gradient scatters rows back.
  Tensor GatherRows(Tensor input, std::vector<int> rows);

  Tensor Add(Tensor a, Tensor b);
  Tensor Sub(Tensor a, Tensor b);
  /// Elementwise product.
  Tensor Mul(Tensor a, Tensor b);
  Tensor Scale(Tensor a, double s);

  Tensor MatMul(Tensor a, Tensor b);
  /// a * b^T.
  Tensor MatMulTransB(Tensor a, Tensor b);

  /// a (m x d) + row (1 x d) broadcast over rows.
  Tensor AddRowBroadcast(Tensor a, Tensor row);
  /// (1 x d) -> (count x d).
  Tensor RepeatRow(Tensor row, int count);
  /// Horizontal concatenation [a | b].
  Tensor ConcatCols(Tensor a, Tensor b);
  /// Row range [start, start+count).
  Tensor SliceRows(Tensor a, int start, int count);
  /// (m x d) -> (m x 1) row sums.
  Tensor RowSum(Tensor a);

  Tensor Relu(Tensor a);
  Tensor Sigmoid(Tensor a);
  Tensor Tanh(Tensor a);

  /// Constant CSR matrix times dense tensor; the sparse matrix must
  /// outlive the graph. Gradient is A^T * upstream.
  Tensor Spmm(const SparseMatrix* sparse, Tensor dense);

  /// Mean of several same-shaped tensors (GCN layer aggregation).
  Tensor MeanOf(const std::vector<Tensor>& tensors);

  const Matrix& value(const Tensor& t) const;

  /// Reverse sweep from the given seed gradients (pairs of tensor and
  /// dLoss/dTensor with matching shape). May be called once per graph.
  /// Fails on shape mismatches or double invocation.
  Status Backward(const std::vector<std::pair<Tensor, Matrix>>& seeds);

  int size() const { return static_cast<int>(nodes_.size()); }

 private:
  struct Node {
    Matrix value;
    /// Set for parameter leaves: the node's value lives in the Param.
    const Matrix* external = nullptr;
    Matrix grad;           // Allocated lazily during Backward.
    bool has_grad = false;
    Param* param = nullptr;
    std::vector<int> parents;
    // Propagates node.grad into parents' grads (and param->grad).
    std::function<void(Graph*, int)> backward;
  };

  Tensor MakeNode(Matrix value, std::vector<int> parents,
                  std::function<void(Graph*, int)> backward);
  Node& node(int id) { return nodes_[static_cast<size_t>(id)]; }
  /// The node's forward value (owned or external).
  const Matrix& NodeValue(int id) const;
  Matrix& GradRef(int id);
  void AccumulateGrad(int id, const Matrix& g);
  /// Overload for freshly computed gradients: moves into the workspace
  /// log when `id` is a parameter leaf (no copy on the hot path).
  void AccumulateGrad(int id, Matrix&& g);
  /// grad(id).row(rows[r]) += up.row(r); routed to the workspace when
  /// `id` is a parameter leaf, so sparse row updates stay sparse. `up`
  /// is taken by value: callers hand over the (dead) source buffer.
  void ScatterRowGrads(int id, const std::vector<int>& rows, Matrix up);

  std::vector<Node> nodes_;
  GradientWorkspace* workspace_ = nullptr;
  bool backward_done_ = false;

  friend struct Tensor;
};

}  // namespace lkpdpp::ad

#endif  // LKPDPP_AUTODIFF_GRAPH_H_
