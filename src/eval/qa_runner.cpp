#include "eval/qa_runner.hpp"

#include <algorithm>

#include "data/corpus.hpp"
#include "eval/grader.hpp"
#include "eval/metrics.hpp"
#include "nn/infer.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace chipalign {

namespace {

/// Accumulates (category, score) pairs into CategoryScores.
class ScoreAccumulator {
 public:
  void add(const std::string& category, double score) {
    sums_[category] += score;
    ++counts_[category];
    total_sum_ += score;
    ++total_count_;
  }

  CategoryScores finish() const {
    CategoryScores out;
    for (const auto& [category, sum] : sums_) {
      out.by_category[category] = sum / counts_.at(category);
      out.counts[category] = counts_.at(category);
    }
    out.all = total_count_ > 0 ? total_sum_ / total_count_ : 0.0;
    return out;
  }

 private:
  std::map<std::string, double> sums_;
  std::map<std::string, int> counts_;
  double total_sum_ = 0.0;
  int total_count_ = 0;
};

GenerateOptions answer_options() {
  GenerateOptions options;
  options.max_new_tokens = 96;
  options.temperature = 0.0;  // paper sets temperature to 0 for all models
  return options;
}

/// Runs score_one(i) for every item index, serially or across `pool`, and
/// returns the per-index results. The deterministic-parallelism rule lives
/// here: each index writes only its own slot, the caller reduces the slots
/// in index order, and the model inference inside score_one is bitwise
/// deterministic — so the reduction consumes identical values in identical
/// order at any thread count.
template <typename Result, typename Fn>
std::vector<Result> map_items(std::size_t count, ThreadPool* pool,
                              const Fn& score_one) {
  std::vector<Result> results(count);
  if (pool == nullptr) {
    for (std::size_t i = 0; i < count; ++i) results[i] = score_one(i);
  } else {
    pool->parallel_for(count,
                       [&](std::size_t i) { results[i] = score_one(i); });
  }
  return results;
}

/// One item's contribution: the category it lands in plus its score(s).
struct ItemScore {
  std::string category;
  double score = 0.0;
};

CategoryScores reduce_in_order(const std::vector<ItemScore>& scores) {
  ScoreAccumulator acc;
  for (const ItemScore& s : scores) acc.add(s.category, s.score);
  return acc.finish();
}

}  // namespace

CategoryScores run_openroad_eval(const TransformerModel& model,
                                 const std::vector<QaEvalItem>& items,
                                 const RetrievalPipeline* rag,
                                 std::size_t rag_top_k, ThreadPool* pool) {
  CA_CHECK(!items.empty(), "OpenROAD eval set is empty");
  // Retrieval runs as one batch up front (fanned across the pool); per-query
  // results are bitwise-identical to serial retrieve_texts calls, so the
  // prompts — and the scores — are unchanged.
  std::vector<std::vector<std::string>> rag_chunks;
  if (rag != nullptr) {
    std::vector<std::string> questions;
    questions.reserve(items.size());
    for (const QaEvalItem& item : items) questions.push_back(item.question);
    rag_chunks = rag->retrieve_texts_batch(questions, rag_top_k, pool);
  }
  const auto scores = map_items<ItemScore>(
      items.size(), pool, [&](std::size_t index) {
        const QaEvalItem& item = items[index];
        const std::vector<std::string> chunks =
            rag != nullptr ? rag_chunks[index]
                           : std::vector<std::string>{item.golden_context};
        const std::string prompt = qa_prompt(
            instruction_header(item.instructions), chunks, item.question);
        const std::string response = generate(model, prompt, answer_options(),
                                              /*stop_at_newline=*/true);
        return ItemScore{domain_name(item.domain),
                         rouge_l(response, item.golden_answer)};
      });
  return reduce_in_order(scores);
}

CategoryScores run_industrial_eval(const TransformerModel& model,
                                   const std::vector<IndustrialItem>& items,
                                   const RetrievalPipeline& rag,
                                   bool multi_turn, std::size_t rag_top_k,
                                   ThreadPool* pool) {
  CA_CHECK(!items.empty(), "industrial eval set is empty");
  // Both turns' questions are known up front (turn 2 retrieves by its own
  // question, not by the model's turn-1 answer), so all retrieval runs as
  // two batches before any generation — identical chunks to the serial
  // per-item calls.
  std::vector<std::string> turn1_questions;
  std::vector<std::string> turn2_questions;
  for (const IndustrialItem& item : items) {
    CA_CHECK(item.turns.size() >= 2, "industrial items need two turns");
    turn1_questions.push_back(item.turns[0].question);
    turn2_questions.push_back(item.turns[1].question);
  }
  const auto turn1_chunks =
      rag.retrieve_texts_batch(turn1_questions, rag_top_k, pool);
  const auto turn2_chunks =
      multi_turn ? rag.retrieve_texts_batch(turn2_questions, rag_top_k, pool)
                 : std::vector<std::vector<std::string>>{};
  const auto scores = map_items<ItemScore>(
      items.size(), pool, [&](std::size_t index) {
        const IndustrialItem& item = items[index];
        const std::string header = instruction_header(item.instructions);

        // Turn 1.
        const std::vector<std::string>& chunks1 = turn1_chunks[index];
        const std::string prompt1 =
            qa_prompt(header, chunks1, item.turns[0].question);
        const std::string response1 = generate(model, prompt1,
                                               answer_options(),
                                               /*stop_at_newline=*/true);
        const int grade1 = rubric_grade(response1, item.turns[0].golden_answer,
                                        item.instructions);

        if (!multi_turn) {
          return ItemScore{domain_name(item.domain),
                           static_cast<double>(grade1)};
        }

        // Turn 2: the follow-up sees the first exchange (with the model's
        // own answer) plus retrieved context for the new question.
        std::vector<std::string> chunks2 = chunks1;
        for (const std::string& chunk : turn2_chunks[index]) {
          if (std::find(chunks2.begin(), chunks2.end(), chunk) ==
              chunks2.end()) {
            chunks2.push_back(chunk);
          }
        }
        std::string prompt2 = qa_prompt(header, chunks2,
                                        item.turns[0].question);
        prompt2 += response1 + "\n";
        prompt2 += "q: " + item.turns[1].question + "\n";
        prompt2 += "out: ";
        const std::string response2 = generate(model, prompt2,
                                               answer_options(),
                                               /*stop_at_newline=*/true);
        const int grade2 = rubric_grade(response2, item.turns[1].golden_answer,
                                        item.instructions);

        return ItemScore{domain_name(item.domain), 0.5 * (grade1 + grade2)};
      });
  return reduce_in_order(scores);
}

std::map<std::string, CategoryScores> run_openroad_eval_metrics(
    const TransformerModel& model, const std::vector<QaEvalItem>& items,
    ThreadPool* pool) {
  CA_CHECK(!items.empty(), "OpenROAD eval set is empty");
  struct MetricScores {
    std::string category;
    double rouge_l = 0.0;
    double rouge_1 = 0.0;
    double bleu = 0.0;
    double token_f1 = 0.0;
  };
  const auto scores = map_items<MetricScores>(
      items.size(), pool, [&](std::size_t index) {
        const QaEvalItem& item = items[index];
        const std::string prompt =
            qa_prompt(instruction_header(item.instructions),
                      {item.golden_context}, item.question);
        const std::string response = generate(model, prompt, answer_options(),
                                              /*stop_at_newline=*/true);
        return MetricScores{domain_name(item.domain),
                            rouge_l(response, item.golden_answer),
                            rouge_1(response, item.golden_answer),
                            bleu(response, item.golden_answer),
                            token_f1(response, item.golden_answer)};
      });
  std::map<std::string, ScoreAccumulator> accs;
  for (const MetricScores& s : scores) {
    accs["rouge_l"].add(s.category, s.rouge_l);
    accs["rouge_1"].add(s.category, s.rouge_1);
    accs["bleu"].add(s.category, s.bleu);
    accs["token_f1"].add(s.category, s.token_f1);
  }
  std::map<std::string, CategoryScores> out;
  for (const auto& [metric, acc] : accs) out[metric] = acc.finish();
  return out;
}

CategoryScores run_mcq_eval(const TransformerModel& model,
                            const std::vector<McqItem>& items,
                            ThreadPool* pool) {
  CA_CHECK(!items.empty(), "MCQ eval set is empty");
  const CharTokenizer& tok = tokenizer();
  const auto scores = map_items<ItemScore>(
      items.size(), pool, [&](std::size_t index) {
        const McqItem& item = items[index];
        const std::string prompt = qa_prompt("", {}, item.question);
        const std::vector<TokenId> context =
            tok.encode(prompt, /*add_bos=*/true);

        // Prefill the shared question once and score every choice from
        // it, rewinding to the question with truncate() in between. The
        // KV rows past the question are never read again, so each choice's
        // mean logprob is bitwise-identical to the re-prefilling
        // mean_logprob() path.
        InferenceSession session(model);
        const std::vector<float> context_logits = session.prefill(context);
        const auto context_len = static_cast<std::int64_t>(context.size());

        double best_score = -1e300;
        int best_choice = -1;
        for (std::size_t c = 0; c < item.choices.size(); ++c) {
          session.truncate(context_len);
          const std::vector<TokenId> continuation =
              tok.encode(item.choices[c]);
          const double score =
              continuation_logprob(session, context_logits, continuation) /
              static_cast<double>(continuation.size());
          if (score > best_score) {
            best_score = score;
            best_choice = static_cast<int>(c);
          }
        }
        return ItemScore{domain_name(item.domain),
                         best_choice == item.correct_index ? 1.0 : 0.0};
      });
  return reduce_in_order(scores);
}

}  // namespace chipalign
