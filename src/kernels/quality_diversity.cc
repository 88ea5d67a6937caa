#include "kernels/quality_diversity.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace lkpdpp {

namespace {

// Floor on sigmoid qualities, so Diag(q) never annihilates the kernel.
// Below it (s < ~-27.6) q, and so the objective, is flat in s.
constexpr double kSigmoidFloor = 1e-12;

}  // namespace

const char* QualityTransformName(QualityTransform t) {
  switch (t) {
    case QualityTransform::kExp:
      return "exp";
    case QualityTransform::kSigmoid:
      return "sigmoid";
  }
  return "?";
}

Vector ApplyQuality(const Vector& scores, QualityTransform transform) {
  Vector q(scores.size());
  switch (transform) {
    case QualityTransform::kExp:
      for (int i = 0; i < scores.size(); ++i) {
        q[i] = std::exp(std::clamp(scores[i], -30.0, 30.0));
      }
      break;
    case QualityTransform::kSigmoid:
      for (int i = 0; i < scores.size(); ++i) {
        q[i] = std::max(1.0 / (1.0 + std::exp(-scores[i])), kSigmoidFloor);
      }
      break;
  }
  return q;
}

Vector QualityLogDerivative(const Vector& scores,
                            QualityTransform transform) {
  Vector t(scores.size());
  switch (transform) {
    case QualityTransform::kExp:
      for (int i = 0; i < scores.size(); ++i) {
        // d log exp(s) / ds = 1, except where clamping froze the value.
        t[i] = (scores[i] > -30.0 && scores[i] < 30.0) ? 1.0 : 0.0;
      }
      break;
    case QualityTransform::kSigmoid:
      for (int i = 0; i < scores.size(); ++i) {
        const double q = 1.0 / (1.0 + std::exp(-scores[i]));
        // d log sigmoid(s) / ds, except where the floor froze the value.
        t[i] = q < kSigmoidFloor ? 0.0 : 1.0 - q;
      }
      break;
  }
  return t;
}

Matrix AssembleKernel(const Vector& quality, const Matrix& diversity) {
  LKP_CHECK_EQ(quality.size(), diversity.rows());
  LKP_CHECK_EQ(diversity.rows(), diversity.cols());
  const int m = quality.size();
  Matrix out(m, m);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < m; ++j) {
      out(i, j) = quality[i] * diversity(i, j) * quality[j];
    }
  }
  return out;
}

}  // namespace lkpdpp
