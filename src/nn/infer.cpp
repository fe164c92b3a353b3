#include "nn/infer.hpp"

#include <cmath>

#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"

namespace chipalign {

InferenceSession::InferenceSession(const TransformerModel& model)
    : model_(model),
      state_(model.config(), model.config().max_seq_len),
      scratch_(model.config(), /*max_batch=*/1) {}

void InferenceSession::reset() { state_.position = 0; }

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
