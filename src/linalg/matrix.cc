#include "linalg/matrix.h"

#include <cmath>
#include <sstream>

#include "common/string_util.h"

namespace lkpdpp {

namespace matrix_probe {

namespace {
// Thread-local so probe runs in one test cannot see allocations from
// concurrently running suites or pool workers.
thread_local bool armed = false;
thread_local long peak = 0;
}  // namespace

void Arm() {
  armed = true;
  peak = 0;
}

long Disarm() {
  armed = false;
  return peak;
}

void OnAlloc(long elements) {
  if (armed && elements > peak) peak = elements;
}

}  // namespace matrix_probe

Vector& Vector::operator+=(const Vector& other) {
  LKP_CHECK_EQ(size(), other.size());
  for (int i = 0; i < size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Vector& Vector::operator-=(const Vector& other) {
  LKP_CHECK_EQ(size(), other.size());
  for (int i = 0; i < size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Vector& Vector::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

double Vector::Sum() const {
  double s = 0.0;
  for (double x : data_) s += x;
  return s;
}

double Vector::Norm() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

double Vector::Dot(const Vector& other) const {
  LKP_CHECK_EQ(size(), other.size());
  double s = 0.0;
  for (int i = 0; i < size(); ++i) s += data_[i] * other.data_[i];
  return s;
}

double Vector::Max() const {
  LKP_CHECK(!empty());
  double m = data_[0];
  for (double x : data_) m = std::max(m, x);
  return m;
}

double Vector::Min() const {
  LKP_CHECK(!empty());
  double m = data_[0];
  for (double x : data_) m = std::min(m, x);
  return m;
}

bool Vector::AllFinite() const {
  for (double x : data_) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

std::string Vector::ToString() const {
  std::ostringstream os;
  os << "[";
  for (int i = 0; i < size(); ++i) {
    if (i > 0) os << ", ";
    os << StrFormat("%.4g", data_[i]);
  }
  os << "]";
  return os.str();
}

Vector operator+(Vector a, const Vector& b) { return a += b; }
Vector operator-(Vector a, const Vector& b) { return a -= b; }
Vector operator*(Vector a, double s) { return a *= s; }
Vector operator*(double s, Vector a) { return a *= s; }

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = static_cast<int>(init.size());
  cols_ = rows_ > 0 ? static_cast<int>(init.begin()->size()) : 0;
  data_.reserve(static_cast<size_t>(rows_) * cols_);
  for (const auto& row : init) {
    LKP_CHECK_EQ(static_cast<int>(row.size()), cols_);
    data_.insert(data_.end(), row.begin(), row.end());
  }
  matrix_probe::OnAlloc(static_cast<long>(rows_) * cols_);
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::Diagonal(const Vector& d) {
  Matrix m(d.size(), d.size());
  for (int i = 0; i < d.size(); ++i) m(i, i) = d[i];
  return m;
}

Matrix Matrix::Outer(const Vector& a, const Vector& b) {
  Matrix m(a.size(), b.size());
  for (int i = 0; i < a.size(); ++i) {
    for (int j = 0; j < b.size(); ++j) m(i, j) = a[i] * b[j];
  }
  return m;
}

double& Matrix::at(int r, int c) {
  LKP_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_)
      << "(" << r << "," << c << ") shape " << rows_ << "x" << cols_;
  return (*this)(r, c);
}

double Matrix::at(int r, int c) const {
  LKP_CHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_)
      << "(" << r << "," << c << ") shape " << rows_ << "x" << cols_;
  return (*this)(r, c);
}

Vector Matrix::Row(int r) const {
  LKP_CHECK(r >= 0 && r < rows_);
  Vector v(cols_);
  for (int c = 0; c < cols_; ++c) v[c] = (*this)(r, c);
  return v;
}

Vector Matrix::Col(int c) const {
  LKP_CHECK(c >= 0 && c < cols_);
  Vector v(rows_);
  for (int r = 0; r < rows_; ++r) v[r] = (*this)(r, c);
  return v;
}

void Matrix::SetRow(int r, const Vector& v) {
  LKP_CHECK(r >= 0 && r < rows_);
  LKP_CHECK_EQ(v.size(), cols_);
  for (int c = 0; c < cols_; ++c) (*this)(r, c) = v[c];
}

void Matrix::SetCol(int c, const Vector& v) {
  LKP_CHECK(c >= 0 && c < cols_);
  LKP_CHECK_EQ(v.size(), rows_);
  for (int r = 0; r < rows_; ++r) (*this)(r, c) = v[r];
}

Vector Matrix::Diag() const {
  const int n = std::min(rows_, cols_);
  Vector v(n);
  for (int i = 0; i < n; ++i) v[i] = (*this)(i, i);
  return v;
}

Matrix Matrix::Submatrix(const std::vector<int>& row_idx,
                         const std::vector<int>& col_idx) const {
  Matrix out(static_cast<int>(row_idx.size()),
             static_cast<int>(col_idx.size()));
  for (size_t i = 0; i < row_idx.size(); ++i) {
    LKP_CHECK(row_idx[i] >= 0 && row_idx[i] < rows_);
    for (size_t j = 0; j < col_idx.size(); ++j) {
      LKP_CHECK(col_idx[j] >= 0 && col_idx[j] < cols_);
      out(static_cast<int>(i), static_cast<int>(j)) =
          (*this)(row_idx[i], col_idx[j]);
    }
  }
  return out;
}

Matrix Matrix::PrincipalSubmatrix(const std::vector<int>& idx) const {
  return Submatrix(idx, idx);
}

Matrix Matrix::Transpose() const {
  Matrix out(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  }
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  LKP_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  LKP_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (double& x : data_) x *= s;
  return *this;
}

Matrix& Matrix::HadamardInPlace(const Matrix& other) {
  LKP_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] *= other.data_[i];
  return *this;
}

void Matrix::AddDiagonal(double s) {
  const int n = std::min(rows_, cols_);
  for (int i = 0; i < n; ++i) (*this)(i, i) += s;
}

double Matrix::Trace() const {
  double t = 0.0;
  const int n = std::min(rows_, cols_);
  for (int i = 0; i < n; ++i) t += (*this)(i, i);
  return t;
}

double Matrix::FrobeniusNorm() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

double Matrix::MaxAbs() const {
  double m = 0.0;
  for (double x : data_) m = std::max(m, std::fabs(x));
  return m;
}

bool Matrix::AllFinite() const {
  for (double x : data_) {
    if (!std::isfinite(x)) return false;
  }
  return true;
}

bool Matrix::IsSymmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (int r = 0; r < rows_; ++r) {
    for (int c = r + 1; c < cols_; ++c) {
      if (std::fabs((*this)(r, c) - (*this)(c, r)) > tol) return false;
    }
  }
  return true;
}

void Matrix::Symmetrize() {
  LKP_CHECK_EQ(rows_, cols_);
  for (int r = 0; r < rows_; ++r) {
    for (int c = r + 1; c < cols_; ++c) {
      const double avg = 0.5 * ((*this)(r, c) + (*this)(c, r));
      (*this)(r, c) = avg;
      (*this)(c, r) = avg;
    }
  }
}

std::string Matrix::ToString(int precision) const {
  std::ostringstream os;
  for (int r = 0; r < rows_; ++r) {
    os << (r == 0 ? "[[" : " [");
    for (int c = 0; c < cols_; ++c) {
      if (c > 0) os << ", ";
      os << StrFormat("%.*g", precision, (*this)(r, c));
    }
    os << (r == rows_ - 1 ? "]]" : "]\n");
  }
  return os.str();
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, double s) { return a *= s; }
Matrix operator*(double s, Matrix a) { return a *= s; }

namespace {

// Tile edge for the cache-blocked GEMM paths below: a 64x64 double tile
// is 32 KiB, so the two or three tiles each kernel keeps hot fit in a
// 256 KiB L2 with room to spare. The tiled loops visit the k (reduction)
// index in the same ascending order as the naive triple loop for every
// output entry, so blocking changes cache behavior only — results stay
// bit-identical, which the golden bench baselines rely on.
constexpr int kGemmTile = 64;

}  // namespace

Matrix MatMul(const Matrix& a, const Matrix& b) {
  LKP_CHECK_EQ(a.cols(), b.rows());
  const int m = a.rows();
  const int kk = a.cols();
  const int n = b.cols();
  Matrix out(m, n);
  // i-k-j order keeps the inner loop streaming over contiguous rows;
  // blocking i and k keeps the active slab of b (tile x n) resident
  // while a full row-block of out accumulates against it.
  for (int i0 = 0; i0 < m; i0 += kGemmTile) {
    const int i1 = std::min(i0 + kGemmTile, m);
    for (int k0 = 0; k0 < kk; k0 += kGemmTile) {
      const int k1 = std::min(k0 + kGemmTile, kk);
      for (int i = i0; i < i1; ++i) {
        double* out_row = out.RowPtr(i);
        const double* a_row = a.RowPtr(i);
        for (int k = k0; k < k1; ++k) {
          const double aik = a_row[k];
          if (aik == 0.0) continue;
          const double* b_row = b.RowPtr(k);
          for (int j = 0; j < n; ++j) out_row[j] += aik * b_row[j];
        }
      }
    }
  }
  return out;
}

Matrix MatMulTransA(const Matrix& a, const Matrix& b) {
  LKP_CHECK_EQ(a.rows(), b.rows());
  const int m = a.cols();
  const int kk = a.rows();
  const int n = b.cols();
  Matrix out(m, n);
  // Blocking i keeps a row-block of out resident across the full k sweep
  // (the naive k-outer order re-streamed all of out for every k).
  for (int i0 = 0; i0 < m; i0 += kGemmTile) {
    const int i1 = std::min(i0 + kGemmTile, m);
    for (int k = 0; k < kk; ++k) {
      const double* a_row = a.RowPtr(k);
      const double* b_row = b.RowPtr(k);
      for (int i = i0; i < i1; ++i) {
        const double aki = a_row[i];
        if (aki == 0.0) continue;
        double* out_row = out.RowPtr(i);
        for (int j = 0; j < n; ++j) out_row[j] += aki * b_row[j];
      }
    }
  }
  return out;
}

Matrix MatMulTransB(const Matrix& a, const Matrix& b) {
  LKP_CHECK_EQ(a.cols(), b.cols());
  const int m = a.rows();
  const int n = b.rows();
  Matrix out(m, n);
  // Blocking j keeps a block of b rows resident while every row of a
  // streams past it once.
  for (int j0 = 0; j0 < n; j0 += kGemmTile) {
    const int j1 = std::min(j0 + kGemmTile, n);
    for (int i = 0; i < m; ++i) {
      const double* a_row = a.RowPtr(i);
      double* out_row = out.RowPtr(i);
      for (int j = j0; j < j1; ++j) {
        const double* b_row = b.RowPtr(j);
        double s = 0.0;
        for (int k = 0; k < a.cols(); ++k) s += a_row[k] * b_row[k];
        out_row[j] = s;
      }
    }
  }
  return out;
}

Vector MatVec(const Matrix& a, const Vector& x) {
  LKP_CHECK_EQ(a.cols(), x.size());
  const int m = a.rows();
  const int d = a.cols();
  const double* xv = x.data();
  Vector out(m);
  // Four rows per sweep of x, each with its own accumulator: the four
  // dependency chains overlap, while every row still sums j = 0..d-1 in
  // order, so each entry is bit-identical to a one-row dot product.
  int i = 0;
  for (; i + 4 <= m; i += 4) {
    const double* r0 = a.RowPtr(i);
    const double* r1 = r0 + d;
    const double* r2 = r1 + d;
    const double* r3 = r2 + d;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    for (int j = 0; j < d; ++j) {
      const double xj = xv[j];
      s0 += r0[j] * xj;
      s1 += r1[j] * xj;
      s2 += r2[j] * xj;
      s3 += r3[j] * xj;
    }
    out[i] = s0;
    out[i + 1] = s1;
    out[i + 2] = s2;
    out[i + 3] = s3;
  }
  for (; i < m; ++i) {
    const double* row = a.RowPtr(i);
    double s = 0.0;
    for (int j = 0; j < d; ++j) s += row[j] * xv[j];
    out[i] = s;
  }
  return out;
}

Vector MatVecTransA(const Matrix& a, const Vector& x) {
  LKP_CHECK_EQ(a.rows(), x.size());
  Vector out(a.cols());
  for (int i = 0; i < a.rows(); ++i) {
    const double* row = a.RowPtr(i);
    const double xi = x[i];
    if (xi == 0.0) continue;
    for (int j = 0; j < a.cols(); ++j) out[j] += row[j] * xi;
  }
  return out;
}

Matrix Hadamard(Matrix a, const Matrix& b) { return a.HadamardInPlace(b); }

}  // namespace lkpdpp
