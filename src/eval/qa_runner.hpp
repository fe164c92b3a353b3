#pragma once
/// \file qa_runner.hpp
/// \brief Generation-benchmark harnesses: OpenROAD QA (Table 1 / Figure 8),
/// industrial chip QA (Table 2) and multiple-choice QA (Figure 7).
///
/// Every runner optionally fans items across a caller-supplied ThreadPool.
/// Parallelism is deterministic by construction: per-item results are
/// gathered into a slot indexed by item, then reduced in item order, and the
/// per-item inference itself runs on the bitwise-deterministic kernel layer
/// — so scores are identical to the serial path at any thread count. RAG
/// contexts are fetched as one retrieve_texts_batch up front (itself fanned
/// across the same pool, bitwise-equal to serial retrieval) before any
/// generation starts.

#include <map>
#include <string>
#include <vector>

#include "data/qa_bench.hpp"
#include "nn/transformer.hpp"
#include "rag/retrieval.hpp"

namespace chipalign {

class ThreadPool;

/// Per-category and overall score of a generation benchmark.
struct CategoryScores {
  std::map<std::string, double> by_category;  ///< category -> mean score
  std::map<std::string, int> counts;
  double all = 0.0;  ///< mean over every item
};

/// Runs the OpenROAD-style QA benchmark with ROUGE-L scoring.
/// \param rag null => golden context (the item's own doc sentence); non-null
///   => context is retrieved from the corpus by the question (Table 1's two
///   column groups).
/// \param pool null => serial; else items are scored concurrently across the
///   pool (same scores, gathered by item index).
CategoryScores run_openroad_eval(const TransformerModel& model,
                                 const std::vector<QaEvalItem>& items,
                                 const RetrievalPipeline* rag,
                                 std::size_t rag_top_k = 2,
                                 ThreadPool* pool = nullptr);

/// Runs the industrial QA benchmark with the rubric grader (0..100).
/// Contexts always come from RAG (as in the paper). In multi-turn mode the
/// model's own first-turn answer is embedded in the second-turn prompt and
/// both turns are graded.
CategoryScores run_industrial_eval(const TransformerModel& model,
                                   const std::vector<IndustrialItem>& items,
                                   const RetrievalPipeline& rag,
                                   bool multi_turn,
                                   std::size_t rag_top_k = 2,
                                   ThreadPool* pool = nullptr);

/// Multiple-choice accuracy by length-normalized log-likelihood (closed
/// book, no instructions — Figure 7's setting). Each item prefills its
/// question once and scores every choice from it, rewinding the KV cache
/// to the question with truncate() — bitwise-identical scores to
/// re-prefilling per choice at a fraction of the cost.
CategoryScores run_mcq_eval(const TransformerModel& model,
                            const std::vector<McqItem>& items,
                            ThreadPool* pool = nullptr);

/// One generation pass over the OpenROAD eval scored under several metrics
/// at once ("rouge_l", "rouge_1", "bleu", "token_f1"). Backs the paper's
/// §IV-A claim that ROUGE-L is the most representative metric for this
/// benchmark. Golden context only (rag = null semantics of
/// run_openroad_eval).
std::map<std::string, CategoryScores> run_openroad_eval_metrics(
    const TransformerModel& model, const std::vector<QaEvalItem>& items,
    ThreadPool* pool = nullptr);

}  // namespace chipalign
