// train_lkp: LkP training through ExperimentRunner::Run, and its traced
// replay.
//
// The replay re-runs the runner's training loop (runner.cc) through the
// same public calls — GroundSetBuilder::BuildEpoch, Batch::ScoreItems,
// DiversityKernel::Submatrix, the criterion's Evaluate,
// AccumulateBatchGradients, Batch::Finish, AdamOptimizer::Step and
// Evaluator::ValidationNdcg — with one span per call. Its final-epoch
// loss must equal the runner's bit for bit, which shows it times the
// same work.

#include <algorithm>
#include <chrono>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "common/thread_pool.h"
#include "data/synthetic.h"
#include "eval/evaluator.h"
#include "exp/runner.h"
#include "exp/spec.h"
#include "obs/metrics.h"
#include "opt/optimizer.h"
#include "opt/parallel_batch.h"
#include "sampling/ground_set_builder.h"

namespace perfbench {

using namespace lkpdpp;

namespace {

// Scale of the Beauty-like dataset: 2.6k users x 1.5k items, large
// enough that one epoch does ~0.15 s of real work. The dataset is fixed;
// --seed sets the training seed (initialisation, ground-set sampling,
// shuffles), so quality differs between seeds only by training noise.
constexpr double kDatasetScale = 10.0;
constexpr uint64_t kDatasetSeed = 42;
constexpr int kEpochsPerJob = 5;
// A timed run finishes at least this many jobs. Their per-epoch times
// support no percentile beyond the median, so the tail this workload
// reports is its p50.
constexpr size_t kMinJobs = 12;
constexpr double kTailPct = 50.0;

ExperimentSpec TrainSpec(uint64_t seed) {
  ExperimentSpec spec;
  spec.model = ModelKind::kMf;
  spec.criterion = CriterionKind::kLkp;
  spec.lkp_mode = LkpMode::kPositiveOnly;
  spec.k = 5;
  spec.n = 5;
  spec.embedding_dim = 16;
  spec.batch_size = 64;
  spec.epochs = kEpochsPerJob;
  spec.eval_every = kEpochsPerJob;
  spec.seed = seed;
  return spec;
}

double Seconds(std::chrono::steady_clock::time_point a) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - a)
      .count();
}

Vector ColumnToVector(const Matrix& column) {
  Vector v(column.rows());
  for (int r = 0; r < column.rows(); ++r) v[r] = column(r, 0);
  return v;
}

Matrix VectorToColumn(const Vector& v) {
  Matrix m(v.size(), 1);
  for (int r = 0; r < v.size(); ++r) m(r, 0) = v[r];
  return m;
}

struct ReplayResult {
  double final_loss = 0.0;
  int epochs = 0;
  double train_seconds = 0.0;
};

// One training job of `spec`, as ExperimentRunner::RunAndKeepModel runs
// it up to the final test evaluation, with spans around each layer call.
ReplayResult ReplayJob(ExperimentRunner* runner, const Dataset& dataset,
                       const ExperimentSpec& spec, ThreadPool* pool) {
  auto made = runner->MakeModel(spec);
  made.status().CheckOK();
  std::unique_ptr<RecModel> model = std::move(made).ValueOrDie();
  std::unique_ptr<RankingCriterion> criterion =
      runner->MakeCriterion(spec, model->PreferredQuality());
  auto kernel = runner->GetDiversityKernel();
  kernel.status().CheckOK();
  const DiversityKernel* diversity = *kernel;

  GroundSetBuilder builder(&dataset, spec.k, spec.n, spec.target_mode);
  AdamOptimizer::AdamOptions opts;
  opts.learning_rate = spec.learning_rate;
  opts.weight_decay = spec.weight_decay;
  opts.clip_norm = spec.clip_norm;
  AdamOptimizer optimizer(opts);
  optimizer.SetThreadPool(pool);
  Evaluator evaluator(&dataset);
  evaluator.SetThreadPool(pool);
  const std::vector<ad::Param*> params = model->Params();
  Rng rng(spec.seed ^ 0xD1B54A32D192ED03ULL);

  ReplayResult out;
  double best_val = -1.0;
  int rounds_since_best = 0;
  for (int epoch = 1; epoch <= spec.epochs; ++epoch) {
    Span epoch_span("train.epoch");
    const auto train_start = std::chrono::steady_clock::now();
    std::vector<TrainingInstance> instances;
    {
      Span s("sampling.epoch_build_ms");
      auto built = builder.BuildEpoch(&rng);
      built.status().CheckOK();
      instances = std::move(built).ValueOrDie();
      rng.Shuffle(&instances);
    }
    double epoch_loss = 0.0;
    long counted = 0;
    for (size_t start = 0; start < instances.size();
         start += static_cast<size_t>(spec.batch_size)) {
      const size_t end = std::min(
          instances.size(), start + static_cast<size_t>(spec.batch_size));
      const int batch_count = static_cast<int>(end - start);
      const double inv_batch = 1.0 / static_cast<double>(batch_count);
      std::unique_ptr<RecModel::Batch> batch = model->StartBatch();
      auto build_instance = [&](int i,
                                ad::Graph* graph) -> Result<InstanceGrad> {
        const TrainingInstance& inst =
            instances[start + static_cast<size_t>(i)];
        ad::Tensor score_t;
        {
          Span s("models.forward_us");
          score_t = batch->ScoreItems(graph, inst.user, inst.items);
        }
        CriterionInput in;
        in.scores = ColumnToVector(score_t.value());
        in.num_pos = inst.num_pos;
        Matrix k_sub;
        {
          Span s("kernels.submatrix_us");
          k_sub = diversity->Submatrix(inst.items);
          k_sub *= spec.kernel_blend_alpha;
          k_sub.AddDiagonal(1.0 - spec.kernel_blend_alpha);
        }
        in.diversity = &k_sub;
        Result<CriterionOutput> result = [&] {
          Span s("core.criterion_us");
          return criterion->Evaluate(in);
        }();
        if (!result.ok()) {
          InstanceGrad skip;
          skip.skip_reason = result.status();
          return skip;
        }
        InstanceGrad grad;
        grad.loss = result->loss;
        grad.seeds.emplace_back(score_t,
                                VectorToColumn(result->dscore) * inv_batch);
        return grad;
      };
      Result<BatchGradSummary> summary = [&] {
        Span s("opt.accumulate_ms");
        AmbientParent ambient(s.id());
        return AccumulateBatchGradients(batch_count, pool, build_instance);
      }();
      summary.status().CheckOK();
      if (summary->contributed == 0) continue;
      epoch_loss += summary->loss_sum;
      counted += summary->contributed;
      {
        Span s("models.backward_us");
        batch->Finish().CheckOK();
      }
      {
        Span s("opt.step_us");
        optimizer.Step(params).CheckOK();
      }
    }
    out.final_loss =
        counted > 0 ? epoch_loss / static_cast<double>(counted) : 0.0;
    out.epochs = epoch;
    out.train_seconds += Seconds(train_start);
    if (epoch % spec.eval_every == 0 || epoch == spec.epochs) {
      double val = 0.0;
      {
        Span s("eval.validate_ms");
        val = evaluator.ValidationNdcg(model.get(), 10);
      }
      if (val > best_val) {
        best_val = val;
        rounds_since_best = 0;
      } else if (spec.patience > 0 && ++rounds_since_best >= spec.patience) {
        break;
      }
    }
  }
  return out;
}

}  // namespace

void RunTrainLkp(const Options& options, Report* report) {
  obs::Counter* instances_total =
      obs::MetricsRegistry::Global().GetCounter("lkp_train_instances_total");
  obs::Counter* skipped_total =
      obs::MetricsRegistry::Global().GetCounter("lkp_train_skipped_total");
  const ExperimentSpec spec = TrainSpec(options.seed);

  // Set-up: dataset, runner and the diversity-kernel pre-training.
  const int setup_reps = options.trace ? 1 : 9;
  std::vector<double> setup_times;
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<ThreadPool> pool;
  std::unique_ptr<ExperimentRunner> runner;
  double pretrain_start = 0.0;
  double pretrain_end = 0.0;
  for (int rep = 0; rep < setup_reps; ++rep) {
    runner.reset();
    pool.reset();
    dataset.reset();
    const auto t0 = std::chrono::steady_clock::now();
    auto ds = GenerateSyntheticDataset(
        BeautyLikeConfig(kDatasetScale, kDatasetSeed));
    ds.status().CheckOK();
    dataset = std::make_unique<Dataset>(std::move(ds).ValueOrDie());
    pool = std::make_unique<ThreadPool>(std::max(1, options.lanes - 1));
    runner = std::make_unique<ExperimentRunner>(dataset.get());
    runner->SetThreadPool(pool.get());
    pretrain_start = NowMicros();
    runner->GetDiversityKernel().status().CheckOK();
    pretrain_end = NowMicros();
    setup_times.push_back(Seconds(t0));
  }
  report->Info("users", dataset->num_users());
  report->Info("items", dataset->num_items());
  report->Info("dataset_scale", kDatasetScale);
  report->Info("k", spec.k);
  report->Info("n", spec.n);
  report->Info("embedding_dim", spec.embedding_dim);
  report->Info("batch_size", spec.batch_size);
  report->Info("epochs_per_job", spec.epochs);
  report->Info("lkp_mode", LkpModeName(spec.lkp_mode));
  report->Info("setup_reps", setup_reps);

  // Untimed reference job: every timed job, and the traced replay, must
  // reproduce its loss and metrics exactly.
  const long instances_before = instances_total->Value();
  const long skipped_before = skipped_total->Value();
  auto reference = runner->Run(spec);
  reference.status().CheckOK();
  const double reference_loss = reference->final_train_loss;
  const MetricSet reference_metrics = reference->test_metrics.at(10);
  report->Info("final_train_loss", reference_loss);

  if (options.trace) {
    report->attempted = instances_total->Value() - instances_before;
    Tracer::Global().SetEnabled(true);
    Tracer::Global().AddRoot("kernels.pretrain_s", pretrain_start,
                             pretrain_end);
    const auto start = std::chrono::steady_clock::now();
    int jobs = 0;
    double replay_train_s = 0.0;
    int replay_epochs = 0;
    do {
      const ReplayResult r = ReplayJob(runner.get(), *dataset, spec, pool.get());
      ++jobs;
      replay_train_s += r.train_seconds;
      replay_epochs += r.epochs;
      if (r.final_loss != reference_loss) {
        report->Mismatch("replayed final-epoch loss " +
                         std::to_string(r.final_loss) + " != runner's " +
                         std::to_string(reference_loss));
      }
    } while (Seconds(start) < options.seconds);
    const double traced_wall_us = Seconds(start) * 1e6;
    Tracer::Global().SetEnabled(false);
    std::vector<SpanRecord> records = Tracer::Global().Take();
    const auto stats = Summarize(records);
    for (const char* name :
         {"models.forward_us", "kernels.submatrix_us", "core.criterion_us",
          "models.backward_us", "opt.step_us"}) {
      AddSpanMetrics(report, stats, name, /*percentiles=*/true);
    }
    AddSpanMetrics(report, stats, "opt.accumulate_ms", /*percentiles=*/false,
                   /*with_total=*/true);
    AddSpanMetrics(report, stats, "sampling.epoch_build_ms",
                   /*percentiles=*/false);
    AddSpanMetrics(report, stats, "eval.validate_ms", /*percentiles=*/false);
    report->Set("kernels.pretrain_s", (pretrain_end - pretrain_start) / 1e6,
                "s");
    report->Info("top_self_layer", TopSelfLayer(stats));
    report->Set("trace.coverage", Coverage(records, "train.epoch"), "ratio");
    report->Set("trace.overhead",
                static_cast<double>(records.size()) * SpanCostMicros() /
                    traced_wall_us,
                "ratio");
    report->Set("train.skipped_instances",
                static_cast<double>(skipped_total->Value() - skipped_before),
                "count");
    report->Info("replay_jobs", jobs);
    report->Info("replay_epoch_ms", replay_train_s * 1e3 / replay_epochs);
    report->Info("runner_epoch_ms",
                 reference->train_seconds * 1e3 / reference->epochs_run);
  } else {
    // Throughput and epoch time are medians over jobs, so a burst of host
    // preemption during one job moves one sample, not the figure.
    std::vector<double> epoch_ms;
    std::vector<double> job_throughput;
    const StealMeter steal;
    const auto start = std::chrono::steady_clock::now();
    do {
      const long job_before = instances_total->Value();
      auto result = runner->Run(spec);
      if (!result.ok()) {
        report->Mismatch("Run failed: " + result.status().ToString());
        break;
      }
      job_throughput.push_back(
          static_cast<double>(instances_total->Value() - job_before) /
          result->train_seconds);
      epoch_ms.push_back(result->train_seconds * 1e3 / result->epochs_run);
      const MetricSet& m = result->test_metrics.at(10);
      if (result->final_train_loss != reference_loss ||
          m.ndcg != reference_metrics.ndcg ||
          m.category_coverage != reference_metrics.category_coverage) {
        report->Mismatch("a repeated training job diverged from the first");
      }
    } while (Seconds(start) < options.seconds || epoch_ms.size() < kMinJobs);
    report->Info("host_steal_share", steal.Share());
    report->Set("setup_s", Median(setup_times), "s");
    report->Set("peak_rss_mb", PeakRssMb(), "MiB");
    report->Set("throughput", Median(job_throughput), "1/s");
    const LatencySummary epochs = Summarize(epoch_ms, kTailPct);
    report->Set("p50_ms", epochs.p50, "ms");
    report->Set("tail_ms", epochs.tail, "ms");
    report->Set("ndcg10", reference_metrics.ndcg, "ratio");
    report->Set("cc10", reference_metrics.category_coverage, "ratio");
    report->Info("latency_samples", static_cast<double>(epochs.count));
    report->Info("tail_pct", epochs.tail_pct);
    report->attempted = instances_total->Value() - instances_before;
  }
  report->failed = skipped_total->Value() - skipped_before;
  report->Info("skipped_instances", static_cast<double>(report->failed));
}

}  // namespace perfbench
