// Integration tests: core pipeline pieces plus a miniature end-to-end
// pretrain -> finetune -> merge -> evaluate run (kept small for CI speed).

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/backbones.hpp"
#include "core/pipeline.hpp"
#include "core/table.hpp"
#include "data/corpus.hpp"
#include "eval/qa_runner.hpp"
#include "merge/registry.hpp"
#include "nn/infer.hpp"
#include "train/trainer.hpp"

namespace chipalign {
namespace {

TEST(Table, PrintsAlignedColumns) {
  TablePrinter table({"Method", "Score"});
  table.add_row({"chipalign", TablePrinter::fmt(0.3691, 3)});
  table.add_row({"ties", "0.329"});
  std::ostringstream oss;
  table.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("chipalign"), std::string::npos);
  EXPECT_NE(out.find("0.369"), std::string::npos);
  EXPECT_NE(out.find("|---"), std::string::npos);
  EXPECT_THROW(table.add_row({"only one"}), Error);
}

TEST(Table, FormattersRound) {
  EXPECT_EQ(TablePrinter::fmt(0.98765, 3), "0.988");
  EXPECT_EQ(TablePrinter::pct(0.266, 1), "26.6");
}

TEST(Backbones, SpecsAreCoherent) {
  for (const BackboneSpec& spec :
       {openroad_backbone_a(), openroad_backbone_b(), industrial_backbone()}) {
    EXPECT_NO_THROW(spec.config.validate());
    EXPECT_GT(spec.pretrain.steps, 0);
    EXPECT_GT(spec.instruct_ft.steps, 0);
    EXPECT_GT(spec.daft.steps, 0);
    EXPECT_EQ(spec.config.vocab_size, tokenizer().vocab_size());
  }
  EXPECT_EQ(industrial_backbone().chip_recipe,
            BackboneSpec::ChipRecipe::kChipNemoFromBase);
}

TEST(EvalSuiteBuilder, ProducesPaperSizedSets) {
  const FactBase facts;
  const EvalSuite suite = build_eval_suite(facts);
  EXPECT_EQ(suite.openroad.size(), 90u);    // paper: 90 triplets
  EXPECT_EQ(suite.industrial.size(), 20u);  // 4 domains x 5 (~39 questions)
  EXPECT_EQ(suite.mcq.size(), 30u);
  EXPECT_EQ(suite.ifeval.size(), 120u);
  ASSERT_NE(suite.rag, nullptr);
  EXPECT_EQ(suite.rag->corpus_size(), facts.corpus_sentences().size());
}

TEST(RunMerge, DispatchesEveryRegistryMethod) {
  Rng rng(1);
  ModelConfig config;
  config.name = "m";
  config.vocab_size = tokenizer().vocab_size();
  config.d_model = 8;
  config.n_layers = 1;
  config.n_heads = 2;
  config.n_kv_heads = 2;
  config.d_ff = 12;
  config.max_seq_len = 32;
  TransformerModel base_model(config, rng);
  const Checkpoint base = base_model.to_checkpoint();

  auto perturb = [&](std::uint64_t seed) {
    Rng prng(seed);
    Checkpoint out = base;
    for (const std::string& name : base.names()) {
      Tensor delta = Tensor::randn(base.at(name).shape(), prng, 0.01F);
      Tensor sum = base.at(name);
      for (std::int64_t i = 0; i < sum.numel(); ++i) sum[i] += delta[i];
      out.put(name, std::move(sum));
    }
    return out;
  };
  const Checkpoint chip = perturb(11);
  const Checkpoint instruct = perturb(12);

  for (const std::string& method : merger_names()) {
    const Checkpoint merged = run_merge(method, chip, instruct, base, 0.6);
    EXPECT_TRUE(merged.all_finite()) << method;
    EXPECT_EQ(merged.names(), base.names()) << method;
    // The merged model must load and run.
    const TransformerModel model = TransformerModel::from_checkpoint(merged);
    InferenceSession session(model);
    for (const float v : session.prefill({1, 5, 9})) {
      ASSERT_TRUE(std::isfinite(v)) << method;
    }
  }
}

/// Miniature end-to-end run exercising the full Figure-4(a) pipeline shape.
/// Budgets are tiny; we assert structural soundness and that training moved
/// each model toward its specialty, not benchmark-grade quality.
TEST(EndToEnd, MiniaturePipelineRuns) {
  const FactBase facts;

  ModelConfig config;
  config.name = "mini";
  config.vocab_size = tokenizer().vocab_size();
  config.d_model = 24;
  config.n_layers = 2;
  config.n_heads = 2;
  config.n_kv_heads = 1;
  config.d_ff = 48;
  config.max_seq_len = 224;

  Rng rng(77);
  TrainableModel base_model(config, rng);

  // Abbreviated pretraining.
  PretrainDataConfig pretrain_data;
  pretrain_data.count = 200;
  pretrain_data.max_len = config.max_seq_len;
  TrainConfig pretrain_budget;
  pretrain_budget.steps = 60;
  pretrain_budget.batch_size = 4;
  pretrain_budget.peak_lr = 3e-3;
  const TrainStats pre_stats = train_full(
      base_model, build_pretrain_dataset(facts, pretrain_data),
          pretrain_budget);
  EXPECT_LT(pre_stats.final_loss, pre_stats.first_loss);
  const Checkpoint base = base_model.to_checkpoint();

  // Instruct finetune.
  TrainableModel instruct_model(base);
  InstructDataConfig instruct_data;
  instruct_data.count = 150;
  instruct_data.max_len = config.max_seq_len;
  TrainConfig instruct_budget = pretrain_budget;
  instruct_budget.steps = 50;
  const TrainStats inst_stats =
      train_full(instruct_model,
                 build_instruct_dataset(instruct_data), instruct_budget);
  EXPECT_LT(inst_stats.final_loss, inst_stats.first_loss);
  const Checkpoint instruct = instruct_model.to_checkpoint();

  // LoRA DAFT from the instruct model.
  TrainableModel chip_model(instruct);
  LoraConfig lora_config;
  lora_config.rank = 4;
  LoraAdapterSet adapters(chip_model, lora_config);
  ChipDataConfig chip_data;
  chip_data.max_len = config.max_seq_len;
  chip_data.repeats_per_fact = 2;
  chip_data.domains = {FactDomain::kVlsiFlow};
  TrainConfig daft_budget = pretrain_budget;
  daft_budget.steps = 40;
  const TrainStats daft_stats =
      train_lora(chip_model, adapters,
                 build_chip_daft_dataset(facts, chip_data), daft_budget);
  EXPECT_LT(daft_stats.final_loss, daft_stats.first_loss);
  adapters.fold();
  const Checkpoint chip = chip_model.to_checkpoint();

  // ChipAlign merge and a smoke evaluation.
  const Checkpoint merged = run_merge("chipalign", chip, instruct, base, 0.6);
  EXPECT_TRUE(merged.all_finite());

  TransformerModel merged_model = TransformerModel::from_checkpoint(merged);
  const auto items = build_openroad_eval(facts, 5, 6);
  const CategoryScores scores =
      run_openroad_eval(merged_model, items, /*rag=*/nullptr);
  EXPECT_GE(scores.all, 0.0);
  EXPECT_LE(scores.all, 1.0);
}

}  // namespace
}  // namespace chipalign
