// Tests for the extension mergers: Fisher-weighted merging (with its
// gradient-based estimator) and the row-wise geodesic variant.

#include <gtest/gtest.h>

#include <cmath>

#include "data/corpus.hpp"
#include "merge/fisher.hpp"
#include "merge/geodesic.hpp"
#include "merge/geodesic_rowwise.hpp"
#include "tensor/tensor_ops.hpp"
#include "train/fisher.hpp"
#include "util/error.hpp"

namespace chipalign {
namespace {

MergeOptions opts(double lambda) {
  MergeOptions options;
  options.lambda = lambda;
  return options;
}

Checkpoint two_tensor_checkpoint(float a0, float a1, float b0, float b1) {
  Checkpoint ckpt;
  ckpt.put("w", Tensor({2}, {a0, a1}));
  ckpt.put("v", Tensor({2}, {b0, b1}));
  return ckpt;
}

// -- FisherMerger
// ---------------------------------------------------------------

TEST(FisherMerger, EqualFishersReduceToLerp) {
  const Checkpoint chip = two_tensor_checkpoint(1, 2, 3, 4);
  const Checkpoint instruct = two_tensor_checkpoint(5, 6, 7, 8);
  const Checkpoint fisher = two_tensor_checkpoint(1, 1, 1, 1);

  const FisherMerger merger(fisher, fisher);
  const Checkpoint merged =
      merge_checkpoints(merger, chip, instruct, nullptr, opts(0.25));
  // 0.25 * chip + 0.75 * instruct
  EXPECT_NEAR(merged.at("w")[0], 0.25F * 1 + 0.75F * 5, 1e-5);
  EXPECT_NEAR(merged.at("v")[1], 0.25F * 4 + 0.75F * 8, 1e-5);
}

TEST(FisherMerger, DominantFisherPicksThatModel) {
  const Checkpoint chip = two_tensor_checkpoint(1, 1, 1, 1);
  const Checkpoint instruct = two_tensor_checkpoint(9, 9, 9, 9);
  Checkpoint fisher_chip = two_tensor_checkpoint(1e6F, 0, 1e6F, 0);
  Checkpoint fisher_instruct = two_tensor_checkpoint(0, 1e6F, 0, 1e6F);

  const FisherMerger merger(fisher_chip, fisher_instruct);
  const Checkpoint merged =
      merge_checkpoints(merger, chip, instruct, nullptr, opts(0.5));
  EXPECT_NEAR(merged.at("w")[0], 1.0F, 1e-4);  // chip-important parameter
  EXPECT_NEAR(merged.at("w")[1], 9.0F, 1e-4);  // instruct-important parameter
}

TEST(FisherMerger, ZeroFisherFallsBackToMean) {
  const Checkpoint chip = two_tensor_checkpoint(2, 2, 2, 2);
  const Checkpoint instruct = two_tensor_checkpoint(4, 4, 4, 4);
  const Checkpoint zeros = two_tensor_checkpoint(0, 0, 0, 0);

  const FisherMerger merger(zeros, zeros);
  const Checkpoint merged =
      merge_checkpoints(merger, chip, instruct, nullptr, opts(0.5));
  EXPECT_NEAR(merged.at("w")[0], 3.0F, 1e-5);
}

TEST(FisherMerger, RejectsNegativeFisher) {
  const Checkpoint good = two_tensor_checkpoint(1, 1, 1, 1);
  const Checkpoint bad = two_tensor_checkpoint(-1, 1, 1, 1);
  EXPECT_THROW(FisherMerger(bad, good), Error);
}

// -- Fisher estimator
// -------------------------------------------------------------

ModelConfig fisher_config() {
  ModelConfig config;
  config.name = "fisher-test";
  config.vocab_size = tokenizer().vocab_size();
  config.d_model = 16;
  config.n_layers = 1;
  config.n_heads = 2;
  config.n_kv_heads = 1;
  config.d_ff = 24;
  config.max_seq_len = 64;
  config.validate();
  return config;
}

TEST(FisherEstimator, ProducesNonNegativeModelShapedCheckpoint) {
  Rng rng(1);
  TrainableModel model(fisher_config(), rng);
  std::vector<TrainExample> dataset = {
      make_qa_example("q: a\nout: ", "b", 64),
      make_qa_example("q: c\nout: ", "d", 64),
  };
  const Checkpoint fisher = estimate_diagonal_fisher(model, dataset, 4, 7);
  EXPECT_EQ(fisher.names(), model.to_checkpoint().names());
  double total = 0.0;
  for (const std::string& name : fisher.names()) {
    for (float v : fisher.at(name).values()) {
      EXPECT_GE(v, 0.0F);
      total += v;
    }
  }
  EXPECT_GT(total, 0.0);  // gradients flow somewhere
}

TEST(FisherEstimator, DeterministicForSeed) {
  Rng rng(2);
  TrainableModel model(fisher_config(), rng);
  std::vector<TrainExample> dataset = {
      make_qa_example("q: a\nout: ", "b", 64)};
  const Checkpoint f1 = estimate_diagonal_fisher(model, dataset, 3, 11);
  const Checkpoint f2 = estimate_diagonal_fisher(model, dataset, 3, 11);
  for (const std::string& name : f1.names()) {
    EXPECT_EQ(ops::max_abs_diff(f1.at(name), f2.at(name)), 0.0) << name;
  }
}

TEST(FisherEstimator, EndToEndFisherMergeRuns) {
  Rng rng(3);
  TrainableModel chip_model(fisher_config(), rng);
  TrainableModel instruct_model(fisher_config(), rng);
  std::vector<TrainExample> dataset = {
      make_qa_example("q: ping\nout: ", "pong", 64)};

  const Checkpoint fisher_chip =
      estimate_diagonal_fisher(chip_model, dataset, 2, 1);
  const Checkpoint fisher_instruct =
      estimate_diagonal_fisher(instruct_model, dataset, 2, 2);

  const FisherMerger merger(fisher_chip, fisher_instruct);
  const Checkpoint merged =
      merge_checkpoints(merger, chip_model.to_checkpoint(),
                        instruct_model.to_checkpoint(), nullptr, opts(0.6));
  EXPECT_TRUE(merged.all_finite());
}

// -- row-wise geodesic
// -----------------------------------------------------------

TEST(RowwiseGeodesic, EndpointsRecoverInputs) {
  Rng rng(4);
  Checkpoint chip;
  chip.put("w", Tensor::randn({4, 6}, rng));
  Checkpoint instruct;
  instruct.put("w", Tensor::randn({4, 6}, rng));

  const Checkpoint at_one = merge_checkpoints(GeodesicRowwiseMerger(), chip,
                                              instruct, nullptr, opts(1.0));
  EXPECT_LT(ops::max_abs_diff(at_one.at("w"), chip.at("w")), 2e-5);
  const Checkpoint at_zero = merge_checkpoints(GeodesicRowwiseMerger(), chip,
                                               instruct, nullptr, opts(0.0));
  EXPECT_LT(ops::max_abs_diff(at_zero.at("w"), instruct.at("w")), 2e-5);
}

TEST(RowwiseGeodesic, RestoresPerRowNorms) {
  Rng rng(5);
  Checkpoint chip;
  chip.put("w", Tensor::randn({3, 8}, rng, 2.0F));
  Checkpoint instruct;
  instruct.put("w", Tensor::randn({3, 8}, rng, 0.5F));

  const double lambda = 0.6;
  const Checkpoint merged = merge_checkpoints(GeodesicRowwiseMerger(), chip,
                                              instruct, nullptr, opts(lambda));
  for (std::int64_t r = 0; r < 3; ++r) {
    const double expected = std::pow(ops::norm(chip.at("w").row(r)), lambda) *
                            std::pow(ops::norm(instruct.at("w").row(r)),
                                     1.0 - lambda);
    EXPECT_NEAR(ops::norm(merged.at("w").row(r)), expected, expected * 1e-4)
        << "row " << r;
  }
}

TEST(RowwiseGeodesic, Rank1FallsBackToWholeTensorGeodesic) {
  Rng rng(6);
  Checkpoint chip;
  chip.put("norm", Tensor::randn({8}, rng));
  Checkpoint instruct;
  instruct.put("norm", Tensor::randn({8}, rng));

  const Checkpoint rowwise = merge_checkpoints(GeodesicRowwiseMerger(), chip,
                                               instruct, nullptr, opts(0.6));
  const Checkpoint whole = merge_checkpoints(GeodesicMerger(), chip, instruct,
                                             nullptr, opts(0.6));
  EXPECT_LT(ops::max_abs_diff(rowwise.at("norm"), whole.at("norm")), 1e-6);
}

TEST(RowwiseGeodesic, DiffersFromWholeTensorOnHeterogeneousRows) {
  // Rows with different angles and norms: whole-tensor normalization mixes
  // them, per-row treats each independently — results must differ.
  Checkpoint chip;
  chip.put("w", Tensor({2, 2}, {2.0F, 0.0F, 1.0F, 0.0F}));
  Checkpoint instruct;
  instruct.put("w", Tensor({2, 2}, {0.0F, 1.0F, 3.0F, 0.0F}));

  const Checkpoint rowwise = merge_checkpoints(GeodesicRowwiseMerger(), chip,
                                               instruct, nullptr, opts(0.5));
  const Checkpoint whole = merge_checkpoints(GeodesicMerger(), chip, instruct,
                                             nullptr, opts(0.5));
  EXPECT_GT(ops::max_abs_diff(rowwise.at("w"), whole.at("w")), 1e-3);
}

TEST(RowwiseGeodesic, ZeroRowFallsBackToRowLerp) {
  Checkpoint chip;
  chip.put("w", Tensor({2, 2}, {0.0F, 0.0F, 1.0F, 1.0F}));
  Checkpoint instruct;
  instruct.put("w", Tensor({2, 2}, {4.0F, 4.0F, 1.0F, 1.0F}));
  const Checkpoint merged = merge_checkpoints(GeodesicRowwiseMerger(), chip,
                                              instruct, nullptr, opts(0.25));
  // Row 0: chip side zero -> LERP: 0.25*0 + 0.75*4 = 3.
  EXPECT_NEAR(merged.at("w").at2(0, 0), 3.0F, 1e-5);
}

}  // namespace
}  // namespace chipalign
