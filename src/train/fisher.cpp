#include "train/fisher.hpp"

#include "train/loss.hpp"
#include "util/error.hpp"

namespace chipalign {

Checkpoint estimate_diagonal_fisher(TrainableModel& model,
                                    const std::vector<TrainExample>& dataset,
                                    int max_examples, std::uint64_t seed) {
  CA_CHECK(!dataset.empty(), "Fisher estimation needs a dataset");
  CA_CHECK(max_examples > 0, "max_examples must be positive");

  // Accumulators shaped like the parameters.
  std::map<std::string, Tensor> accum;
  for (const Parameter* p : model.parameters()) {
    accum.emplace(p->name, Tensor(p->value.shape()));
  }

  Rng rng(seed);
  int contributed = 0;
  for (int i = 0; i < max_examples; ++i) {
    const TrainExample& example =
        dataset[static_cast<std::size_t>(rng.uniform_index(dataset.size()))];

    model.zero_grad();
    const Tensor logits = model.forward(example.tokens);
    const LossResult loss =
        cross_entropy_next_token(logits, example.tokens, example.target_mask);
    if (loss.target_weight <= 0.0) {
      model.discard_forward();
      continue;
    }
    model.backward(loss.dlogits);
    ++contributed;

    const std::vector<Parameter*> params = model.parameters();
    for (std::size_t k = 0; k < params.size(); ++k) {
      auto acc = accum.at(params[k]->name).values();
      const auto grad = model.grads()[k].values();
      for (std::size_t j = 0; j < acc.size(); ++j) {
        acc[j] += grad[j] * grad[j];
      }
    }
  }
  CA_CHECK(contributed > 0, "no example contributed to the Fisher estimate");
  model.zero_grad();

  const float inv = 1.0F / static_cast<float>(contributed);
  for (auto& [name, tensor] : accum) {
    for (float& v : tensor.values()) v *= inv;
  }

  Checkpoint out(model.config(), std::move(accum));
  out.config().name = model.config().name + "-fisher";
  return out;
}

}  // namespace chipalign
