#include "nn/infer.hpp"

#include <algorithm>
#include <cmath>

#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"

namespace chipalign {

InferenceSession::InferenceSession(const TransformerModel& model)
    : model_(model),
      state_(model.config(), model.config().max_seq_len),
      scratch_(model.config(), /*max_batch=*/1) {}

void InferenceSession::reset() { state_.position = 0; }

InferenceSession::Snapshot InferenceSession::snapshot() const {
  Snapshot snap;
  snap.position = state_.position;
  snap.n_layers = state_.n_layers;
  snap.kv_dim = state_.kv_dim;
  const std::int64_t live = state_.position * state_.kv_dim;
  snap.k.resize(static_cast<std::size_t>(state_.n_layers * live));
  snap.v.resize(static_cast<std::size_t>(state_.n_layers * live));
  for (std::int64_t layer = 0; layer < state_.n_layers; ++layer) {
    std::copy_n(state_.k_at(layer, 0), live, snap.k.data() + layer * live);
    std::copy_n(state_.v_at(layer, 0), live, snap.v.data() + layer * live);
  }
  return snap;
}

void InferenceSession::restore(const Snapshot& snap) {
  CA_CHECK(snap.position >= 0 && snap.position <= state_.capacity,
           "snapshot position " << snap.position
                                << " exceeds session KV capacity "
                                << state_.capacity);
  CA_CHECK(snap.n_layers == state_.n_layers && snap.kv_dim == state_.kv_dim,
           "snapshot geometry (n_layers "
               << snap.n_layers << ", kv_dim " << snap.kv_dim
               << ") was taken over a different model than this session's "
                  "(n_layers "
               << state_.n_layers << ", kv_dim " << state_.kv_dim << ")");
  const std::int64_t live = snap.position * state_.kv_dim;
  CA_CHECK(static_cast<std::int64_t>(snap.k.size()) ==
                   state_.n_layers * live &&
               snap.k.size() == snap.v.size(),
           "snapshot cache holds " << snap.k.size() << " floats, expected "
                                   << state_.n_layers * live
                                   << " for position " << snap.position);
  for (std::int64_t layer = 0; layer < state_.n_layers; ++layer) {
    std::copy_n(snap.k.data() + layer * live, live, state_.k_at(layer, 0));
    std::copy_n(snap.v.data() + layer * live, live, state_.v_at(layer, 0));
  }
  state_.position = snap.position;
}

const std::vector<float>& InferenceSession::step(TokenId token) {
  verify(std::span<const TokenId>(&token, 1));
  return logits_;
}

std::span<const float> InferenceSession::verify(
    std::span<const TokenId> tokens) {
  const auto block_len = static_cast<std::int64_t>(tokens.size());
  CA_CHECK(block_len > 0, "verify on empty token block");
  if (block_len > scratch_.max_batch) {
    scratch_ = DecodeScratch(model_.config(), block_len);
  }
  // Shrinking keeps the capacity, so only a wider block than any before
  // allocates.
  logits_.resize(
      static_cast<std::size_t>(block_len * model_.config().vocab_size));
  const ForwardGroup group{&state_, tokens};
  forward(model_, std::span<const ForwardGroup>(&group, 1), scratch_,
          std::span<float>(logits_.data(), logits_.size()));
  return std::span<const float>(logits_.data(), logits_.size());
}

void InferenceSession::truncate(std::int64_t pos) { state_.truncate(pos); }

std::vector<float> InferenceSession::prefill(
    const std::vector<TokenId>& tokens) {
  CA_CHECK(!tokens.empty(), "prefill on empty prompt");
  for (std::size_t i = 0; i + 1 < tokens.size(); ++i) step(tokens[i]);
  return step(tokens.back());
}

std::int64_t sample_from_probs(std::span<const float> probs, double u) {
  CA_CHECK(!probs.empty(), "sample_from_probs on empty distribution");
  // Renormalized CDF: scale the uniform draw by the actual probability mass
  // so rounding in the running sum cannot push the threshold past the total
  // and silently select the final index (the pre-fix failure mode when
  // softmax output summed to slightly less than 1).
  double total = 0.0;
  for (const float p : probs) total += p;
  CA_CHECK(total > 0.0 && std::isfinite(total),
           "sample_from_probs needs positive finite mass");
  const double threshold = u * total;
  double cum = 0.0;
  std::int64_t last_nonzero = -1;
  for (std::size_t t = 0; t < probs.size(); ++t) {
    if (probs[t] <= 0.0F) continue;
    last_nonzero = static_cast<std::int64_t>(t);
    cum += probs[t];
    if (threshold < cum) return last_nonzero;
  }
  // Rounding residue at the very top of the CDF: clamp to the last index
  // that actually carries probability.
  return last_nonzero;
}

TokenId pick_token(std::span<const float> row, double temperature,
                   Rng& rng) {
  if (temperature <= 0.0) return static_cast<TokenId>(ops::argmax(row));
  std::vector<float> probs(row.begin(), row.end());
  const auto inv_temp = static_cast<float>(1.0 / temperature);
  for (float& v : probs) v *= inv_temp;
  ops::softmax_inplace(std::span<float>(probs.data(), probs.size()));
  return static_cast<TokenId>(sample_from_probs(
      std::span<const float>(probs.data(), probs.size()), rng.uniform()));
}

double continuation_logprob(InferenceSession& session,
                            std::span<const float> logits,
                            const std::vector<TokenId>& continuation) {
  CA_CHECK(!continuation.empty(),
           "continuation_logprob requires non-empty continuation");
  double total = 0.0;
  std::span<const float> row = logits;
  for (std::size_t i = 0; i < continuation.size(); ++i) {
    const double lse = ops::log_sum_exp(row);
    total +=
        static_cast<double>(row[static_cast<std::size_t>(continuation[i])]) -
        lse;
    if (i + 1 < continuation.size()) row = session.step(continuation[i]);
  }
  return total;
}

double sequence_logprob(const TransformerModel& model,
                        const std::vector<TokenId>& context,
                        const std::vector<TokenId>& continuation) {
  CA_CHECK(!context.empty(), "sequence_logprob requires non-empty context");
  InferenceSession session(model);
  // Feed the context; the logits after its last token predict continuation[0].
  const std::vector<float> logits = session.prefill(context);
  return continuation_logprob(session, logits, continuation);
}

double mean_logprob(const TransformerModel& model,
                    const std::vector<TokenId>& context,
                    const std::vector<TokenId>& continuation) {
  return sequence_logprob(model, context, continuation) /
         static_cast<double>(continuation.size());
}

}  // namespace chipalign
