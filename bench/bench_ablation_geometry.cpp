// Ablation bench for the design choices behind ChipAlign (§III-A/B):
//  1. weight-space geometry of the real model pair (angle Theta per tensor,
//     task-vector cosine, SLERP-vs-LERP gap at lambda = 0.6);
//  2. the contribution of each ChipAlign ingredient, measured on OpenROAD QA
//     (golden context): full ChipAlign vs plain LERP vs SLERP without the
//     norm-restoration step.

#include <cstdio>
#include <string>
#include <vector>

#include "core/backbones.hpp"
#include "core/model_zoo.hpp"
#include "core/pipeline.hpp"
#include "core/table.hpp"
#include "data/corpus.hpp"
#include "eval/qa_runner.hpp"
#include "merge/fisher.hpp"
#include "merge/geodesic.hpp"
#include "merge/geometry.hpp"
#include "tensor/tensor_ops.hpp"
#include "train/fisher.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace chipalign {
namespace {

/// ChipAlign variant that skips the Norm^lambda rescaling step — the merged
/// tensor keeps unit-sphere scale times the *chip* norm only. Used to
/// isolate the contribution of geometric norm restoration.
class NoRestoreMerger final : public Merger {
 public:
  std::string name() const override { return "chipalign_no_restore"; }

  Tensor merge_tensor(const std::string&, const Tensor& chip,
                      const Tensor& instruct, const Tensor*,
                      const MergeOptions& options, Rng&) const override {
    const double norm_chip = ops::frobenius_norm(chip);
    const double norm_instruct = ops::frobenius_norm(instruct);
    if (norm_chip == 0.0 || norm_instruct == 0.0) {
      return ops::add(ops::scaled(chip, static_cast<float>(options.lambda)),
                      ops::scaled(instruct,
                                  static_cast<float>(1.0 - options.lambda)));
    }
    const Tensor unit_chip =
        ops::scaled(chip, static_cast<float>(1.0 / norm_chip));
    const Tensor unit_instruct =
        ops::scaled(instruct, static_cast<float>(1.0 / norm_instruct));
    Tensor merged = slerp_unit(unit_chip, unit_instruct, options.lambda,
                               options.theta_epsilon);
    // Arithmetic-mean rescale instead of the geometric weighted mean.
    ops::scale(merged.values(),
               static_cast<float>(0.5 * (norm_chip + norm_instruct)));
    return merged;
  }
};

}  // namespace
}  // namespace chipalign

int main() {
  using namespace chipalign;
  set_log_level(LogLevel::kInfo);
  std::printf("== ChipAlign ablation: weight-space geometry & method "
              "ingredients ==\n");
  Timer timer;

  ModelZoo zoo;
  const EvalSuite suite = build_eval_suite(zoo.facts());
  const BackboneSpec spec = openroad_backbone_a();
  const Checkpoint base = zoo.base(spec);
  const Checkpoint instruct = zoo.instruct(spec);
  const Checkpoint chip = zoo.chip(spec);

  // Part 1: geometry of the chip/instruct pair.
  std::printf("\n--- weight-space geometry (chip vs instruct, lambda=0.6) "
              "---\n\n");
  const auto report = analyze_geometry(chip, instruct, &base, 0.6);
  TablePrinter geo({"Tensor", "numel", "theta(rad)", "tv-cosine",
                    "slerp-lerp gap"});
  for (const TensorGeometry& g : report) {
    geo.add_row({g.name, std::to_string(g.numel), TablePrinter::fmt(g.theta, 4),
                 TablePrinter::fmt(g.tv_cosine, 3),
                 TablePrinter::fmt(g.slerp_lerp_gap, 5)});
  }
  geo.print();
  const GeometrySummary summary = summarize_geometry(report);
  std::printf("\nmean theta %.4f rad, max theta %.4f rad, mean task-vector "
              "cosine %.3f, mean slerp-lerp gap %.5f\n",
              summary.mean_theta, summary.max_theta, summary.mean_tv_cosine,
              summary.mean_slerp_lerp_gap);

  // Part 2: ingredient ablation on OpenROAD QA (golden context).
  std::printf("\n--- ingredient ablation (ROUGE-L, golden context) ---\n\n");
  TablePrinter ablation({"Variant", "All"});

  auto eval_ckpt = [&](const Checkpoint& ckpt) {
    TransformerModel model = TransformerModel::from_checkpoint(ckpt);
    return run_openroad_eval(model, suite.openroad, nullptr).all;
  };

  MergeOptions options;
  options.lambda = 0.6;
  ablation.add_row(
      {"chipalign (geodesic + norm restore)",
       TablePrinter::fmt(eval_ckpt(run_merge("chipalign", chip, instruct,
                                             base, 0.6)))});
  ablation.add_row(
      {"lerp (straight line, same lambda)",
       TablePrinter::fmt(eval_ckpt(run_merge("lerp", chip, instruct, base,
                                             0.6)))});
  ablation.add_row(
      {"slerp w/o geometric norm restore",
       TablePrinter::fmt(eval_ckpt(merge_checkpoints(
           NoRestoreMerger(), chip, instruct, nullptr, options)))});
  ablation.add_row(
      {"chipalign row-wise (per-row spheres)",
       TablePrinter::fmt(
           eval_ckpt(run_merge("chipalign_rowwise", chip, instruct, base,
                               0.6)))});

  // Fisher-weighted merging (data-based extension baseline): estimate each
  // parent's diagonal Fisher on its own specialty data.
  {
    TrainableModel chip_model(chip);
    TrainableModel instruct_model(instruct);

    ChipDataConfig chip_data;
    chip_data.max_len = spec.config.max_seq_len;
    chip_data.domains = spec.chip_domains;
    const Checkpoint fisher_chip = estimate_diagonal_fisher(
        chip_model, build_chip_daft_dataset(zoo.facts(), chip_data), 48, 91);

    InstructDataConfig instruct_data;
    instruct_data.max_len = spec.config.max_seq_len;
    instruct_data.count = 200;
    const Checkpoint fisher_instruct = estimate_diagonal_fisher(
        instruct_model, build_instruct_dataset(instruct_data), 48, 92);

    const FisherMerger fisher_merger(fisher_chip, fisher_instruct);
    ablation.add_row(
        {"fisher-weighted (data-based)",
         TablePrinter::fmt(eval_ckpt(merge_checkpoints(
             fisher_merger, chip, instruct, nullptr, options)))});
  }
  ablation.print();

  // Part 3: metric comparison (the paper's §IV-A remark that ROUGE-L is the
  // most representative metric on this benchmark, over BLEU and others).
  std::printf("\n--- metric comparison on the same responses (golden context) "
              "---\n\n");
  TablePrinter metrics({"Model", "ROUGE-L", "ROUGE-1", "BLEU", "token-F1"});
  struct Row {
    const char* label;
    Checkpoint ckpt;
  };
  std::vector<Row> rows;
  rows.push_back({"Instruct", instruct});
  rows.push_back({"EDA", chip});
  rows.push_back({"ChipAlign(0.6)", run_merge("chipalign", chip, instruct,
                                              base, 0.6)});
  for (const Row& row : rows) {
    TransformerModel model = TransformerModel::from_checkpoint(row.ckpt);
    const auto scores = run_openroad_eval_metrics(model, suite.openroad);
    metrics.add_row({row.label, TablePrinter::fmt(scores.at("rouge_l").all),
                     TablePrinter::fmt(scores.at("rouge_1").all),
                     TablePrinter::fmt(scores.at("bleu").all),
                     TablePrinter::fmt(scores.at("token_f1").all)});
  }
  metrics.print();

  std::printf("\n(total %.1f s)\n", timer.seconds());
  return 0;
}
