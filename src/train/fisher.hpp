#pragma once
/// \file fisher.hpp
/// \brief Diagonal empirical Fisher estimation for Fisher-weighted merging.
///
/// The empirical Fisher of a parameter is the average squared gradient of
/// the per-example negative log-likelihood over a data sample:
///
///   F[theta] = E_x [ (d NLL(x) / d theta)^2 ]
///
/// Estimated one example at a time (exact per-example gradients, no batch
/// mixing). The result is a Checkpoint shaped exactly like the model's
/// weights, consumable by merge::FisherMerger.

#include <cstdint>
#include <vector>

#include "model/checkpoint.hpp"
#include "train/trainable_model.hpp"
#include "train/trainer.hpp"

namespace chipalign {

/// Estimates the diagonal empirical Fisher of `model` over up to
/// `max_examples` examples drawn (seeded) from `dataset`. Examples whose
/// target mask is all-zero are skipped. Throws if no example contributes.
Checkpoint estimate_diagonal_fisher(TrainableModel& model,
                                    const std::vector<TrainExample>& dataset,
                                    int max_examples, std::uint64_t seed);

}  // namespace chipalign
