// Tests for the RAG subsystem: BM25 (including the duplicate-term and
// precomputed-tf fixes), hashed embedder, IVF ANN partition, the hybrid
// pipeline's determinism properties, concurrent batched retrieval, and the
// persisted index (roundtrip, corruption, failpoints).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <thread>
#include <unistd.h>

#include "data/fact_base.hpp"
#include "rag/ann.hpp"
#include "rag/bm25.hpp"
#include "rag/embedder.hpp"
#include "rag/index_store.hpp"
#include "rag/retrieval.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/fs_io.hpp"
#include "util/rng.hpp"
#include "util/string_utils.hpp"
#include "util/thread_pool.hpp"

namespace chipalign {
namespace {

std::vector<std::string> toy_corpus() {
  return {
      "command route_nets routes the nets in fast mode",
      "stage synth runs after export and outputs the netlist",
      "to open the timing panel click the clock icon in the top bar",
      "the faq page covers common install errors",
  };
}

/// A larger deterministic corpus for ANN / batching / persistence tests.
std::vector<std::string> synth_corpus(std::size_t count) {
  static const char* kVerbs[] = {"routes", "checks", "reports", "updates"};
  static const char* kObjects[] = {"the nets", "the timing arcs",
                                   "the floorplan", "the scan chains"};
  Rng rng(0xFACADE);
  std::vector<std::string> docs;
  docs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    std::string doc = "command op" + std::to_string(i) + " ";
    doc += kVerbs[rng.uniform_index(4)];
    doc += " ";
    doc += kObjects[rng.uniform_index(4)];
    docs.push_back(std::move(doc));
  }
  return docs;
}

bool hits_bitwise_equal(const std::vector<RetrievalHit>& a,
                        const std::vector<RetrievalHit>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc_index != b[i].doc_index || a[i].score != b[i].score) {
      return false;
    }
  }
  return true;
}

TEST(Bm25, ExactQueryRanksItsDocumentFirst) {
  const Bm25Index index(toy_corpus());
  const auto hits = index.query("what does command route_nets do?", 2);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].doc_index, 0u);
}

TEST(Bm25, RareTermsOutweighCommonOnes) {
  const Bm25Index index(toy_corpus());
  // "the" occurs everywhere; "synth" only in doc 1.
  const auto hits = index.query("the synth", 1);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].doc_index, 1u);
}

TEST(Bm25, UnknownTermsReturnNothing) {
  const Bm25Index index(toy_corpus());
  EXPECT_TRUE(index.query("zzzzz qqqq", 3).empty());
}

TEST(Bm25, ScoresAreNonNegativeAndSorted) {
  const Bm25Index index(toy_corpus());
  const auto hits = index.query("the nets panel errors", 4);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_GT(hits[i].score, 0.0);
    if (i > 0) {
      EXPECT_LE(hits[i].score, hits[i - 1].score);
    }
  }
}

TEST(Bm25, RejectsEmptyCorpus) {
  EXPECT_THROW(Bm25Index(std::vector<std::string>{}), Error);
}

// Regression for the double-counting bug: a query term repeated N times used
// to contribute N copies of its score. Distinct terms are now collapsed, so
// "synth synth synth" scores exactly like "synth".
TEST(Bm25, DuplicateQueryTermsScoreOnce) {
  const Bm25Index index(toy_corpus());
  const auto once = index.query("synth", 4);
  const auto thrice = index.query("synth synth synth", 4);
  EXPECT_TRUE(hits_bitwise_equal(once, thrice));

  // Mixed case: duplicates of one term must not drown out a rarer term.
  const auto mixed = index.query("the the the synth", 1);
  ASSERT_FALSE(mixed.empty());
  EXPECT_EQ(mixed[0].doc_index, 1u);
}

// The postings store term frequencies counted at build time.
TEST(Bm25, PostingsStoreTermFrequencies) {
  const Bm25Index index(
      std::vector<std::string>{"tick tick tick tock", "tock"});
  const auto& postings = index.postings();
  ASSERT_EQ(postings.count("tick"), 1u);
  ASSERT_EQ(postings.at("tick").size(), 1u);
  EXPECT_EQ(postings.at("tick")[0].doc, 0u);
  EXPECT_EQ(postings.at("tick")[0].tf, 3u);
  ASSERT_EQ(postings.at("tock").size(), 2u);
  EXPECT_EQ(postings.at("tock")[0].tf, 1u);
  EXPECT_EQ(postings.at("tock")[1].tf, 1u);
  ASSERT_EQ(index.doc_token_counts().size(), 2u);
  EXPECT_EQ(index.doc_token_counts()[0], 4u);
  EXPECT_EQ(index.doc_token_counts()[1], 1u);
}

// The precomputed-tf fast path must be arithmetic-identical to the obvious
// reference implementation (per-document std::count at query time) for
// duplicate-free queries: same documents, bitwise-equal scores.
TEST(Bm25, MatchesNaiveReferenceBitwise) {
  const auto corpus = toy_corpus();
  const Bm25Index index(corpus, /*k1=*/1.5, /*b=*/0.75);

  std::vector<std::vector<std::string>> doc_tokens;
  double total_len = 0.0;
  for (const std::string& doc : corpus) {
    doc_tokens.push_back(word_tokens(doc));
    total_len += static_cast<double>(doc_tokens.back().size());
  }
  const double avg_len = total_len / static_cast<double>(corpus.size());

  const auto naive_query = [&](const std::string& text, std::size_t top_k) {
    std::vector<RetrievalHit> hits;
    for (std::size_t d = 0; d < corpus.size(); ++d) {
      double score = 0.0;
      for (const std::string& term : word_tokens(text)) {
        std::size_t df = 0;
        for (const auto& tokens : doc_tokens) {
          if (std::find(tokens.begin(), tokens.end(), term) != tokens.end()) {
            ++df;
          }
        }
        if (df == 0) continue;
        const double tf = static_cast<double>(
            std::count(doc_tokens[d].begin(), doc_tokens[d].end(), term));
        if (tf == 0.0) continue;
        const double idf =
            std::log(1.0 + (static_cast<double>(corpus.size()) -
                            static_cast<double>(df) + 0.5) /
                               (static_cast<double>(df) + 0.5));
        const double len = static_cast<double>(doc_tokens[d].size());
        score += idf * tf * (1.5 + 1.0) /
                 (tf + 1.5 * (1.0 - 0.75 + 0.75 * len / avg_len));
      }
      if (score > 0.0) hits.push_back({d, score});
    }
    std::sort(hits.begin(), hits.end(),
              [](const RetrievalHit& a, const RetrievalHit& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.doc_index < b.doc_index;
              });
    if (hits.size() > top_k) hits.resize(top_k);
    return hits;
  };

  for (const char* query :
       {"route_nets fast mode", "the synth netlist", "timing panel clock",
        "install errors faq", "nets"}) {
    EXPECT_TRUE(hits_bitwise_equal(index.query(query, 4),
                                   naive_query(query, 4)))
        << "query: " << query;
  }
}

TEST(Embedder, EmbeddingIsUnitNormOrZero) {
  const HashedEmbedder embedder(128, 3);
  const auto v = embedder.embed("routing the nets");
  double norm_sq = 0.0;
  for (float x : v) norm_sq += static_cast<double>(x) * x;
  EXPECT_NEAR(norm_sq, 1.0, 1e-5);

  const auto tiny = embedder.embed("ab");  // shorter than the n-gram
  for (float x : tiny) EXPECT_EQ(x, 0.0F);
}

TEST(Embedder, SelfSimilarityIsOne) {
  const HashedEmbedder embedder(128, 3);
  const auto a = embedder.embed("place the cells in safe mode");
  EXPECT_NEAR(HashedEmbedder::cosine(a, a), 1.0, 1e-5);
}

TEST(Embedder, SimilarTextsScoreHigherThanDissimilar) {
  const HashedEmbedder embedder(256, 3);
  const auto query = embedder.embed("route the nets fast");
  const auto close =
      embedder.embed("command route_nets routes the nets in fast mode");
  const auto far = embedder.embed("the faq page covers common install errors");
  EXPECT_GT(HashedEmbedder::cosine(query, close),
            HashedEmbedder::cosine(query, far));
}

TEST(Embedder, CaseInsensitive) {
  const HashedEmbedder embedder(128, 3);
  const auto a = embedder.embed("Route Nets");
  const auto b = embedder.embed("route nets");
  EXPECT_NEAR(HashedEmbedder::cosine(a, b), 1.0, 1e-5);
}

TEST(DenseIndex, FindsNearestDocument) {
  const DenseIndex index(toy_corpus(), HashedEmbedder(256, 3));
  const auto hits = index.query("open the timing panel", 1);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].doc_index, 2u);
}

TEST(Ivf, NprobeEqualsNlistMatchesExactScanBitwise) {
  const auto corpus = synth_corpus(300);
  const DenseIndex dense(corpus, HashedEmbedder(128, 3));
  const IvfIndex ivf =
      IvfIndex::build(dense.embeddings(), 128, IvfConfig{/*nlist=*/12});
  ASSERT_EQ(ivf.nlist(), 12u);
  for (const char* query :
       {"op7 routes the nets", "op250 checks the floorplan", "scan chains"}) {
    const auto vec = dense.embedder().embed(query);
    const auto exact = dense.query_vec(vec, 10);
    const auto probed_all = ivf.query(vec, 10, /*nprobe=*/12,
                                      dense.embeddings());
    EXPECT_TRUE(hits_bitwise_equal(exact, probed_all)) << "query: " << query;
  }
}

TEST(Ivf, BuildIsDeterministicAtAnyThreadCount) {
  const auto corpus = synth_corpus(400);
  const DenseIndex dense(corpus, HashedEmbedder(64, 3));
  const IvfConfig config{/*nlist=*/8};
  ThreadPool pool(3);
  const IvfIndex serial = IvfIndex::build(dense.embeddings(), 64, config);
  const IvfIndex pooled =
      IvfIndex::build(dense.embeddings(), 64, config, &pool);
  EXPECT_EQ(serial.centroids(), pooled.centroids());
  EXPECT_EQ(serial.lists(), pooled.lists());
}

TEST(Ivf, EveryDocumentIsAssignedExactlyOnce) {
  const auto corpus = synth_corpus(257);
  const DenseIndex dense(corpus, HashedEmbedder(64, 3));
  const IvfIndex ivf = IvfIndex::build(dense.embeddings(), 64, IvfConfig{});
  std::set<std::uint32_t> seen;
  for (const auto& list : ivf.lists()) {
    EXPECT_TRUE(std::is_sorted(list.begin(), list.end()));
    for (std::uint32_t doc : list) EXPECT_TRUE(seen.insert(doc).second);
  }
  EXPECT_EQ(seen.size(), corpus.size());
}

TEST(Ivf, RecallAtTenIsHighAtModestNprobe) {
  const auto corpus = synth_corpus(2000);
  const DenseIndex dense(corpus, HashedEmbedder(128, 3));
  const IvfIndex ivf =
      IvfIndex::build(dense.embeddings(), 128, IvfConfig{/*nlist=*/32});
  double recall_sum = 0.0;
  int n = 0;
  for (int q = 0; q < 32; ++q) {
    const std::string query =
        "what does command op" + std::to_string(q * 61) + " do";
    const auto vec = dense.embedder().embed(query);
    const auto exact = dense.query_vec(vec, 10);
    if (exact.empty()) continue;
    const auto approx = ivf.query(vec, 10, /*nprobe=*/8, dense.embeddings());
    std::set<std::size_t> ids;
    for (const auto& hit : approx) ids.insert(hit.doc_index);
    std::size_t found = 0;
    for (const auto& hit : exact) found += ids.count(hit.doc_index);
    recall_sum += static_cast<double>(found) / exact.size();
    ++n;
  }
  ASSERT_GT(n, 0);
  EXPECT_GE(recall_sum / n, 0.9);
}

TEST(Pipeline, RetrievesGoldenContextForFactQuestions) {
  const FactBase facts;
  const RetrievalPipeline pipeline(facts.corpus_sentences());
  int hits_at_2 = 0;
  int total = 0;
  for (const Fact& fact : facts.facts()) {
    const auto texts = pipeline.retrieve_texts(fact.question, 2);
    ++total;
    for (const std::string& text : texts) {
      if (text == fact.context) {
        ++hits_at_2;
        break;
      }
    }
  }
  // The hybrid retriever should find the golden sentence for most facts
  // (recall@2 >= 80%); it intentionally is not perfect, which produces the
  // golden-vs-RAG gap of Table 1.
  EXPECT_GE(static_cast<double>(hits_at_2) / total, 0.8);
}

TEST(Pipeline, TopKBoundsResults) {
  const RetrievalPipeline pipeline(toy_corpus());
  EXPECT_LE(pipeline.retrieve("the nets", 2).size(), 2u);
  EXPECT_LE(pipeline.retrieve_texts("the nets", 1).size(), 1u);
}

TEST(Pipeline, FusionConsidersBothRetrievers) {
  const RetrievalPipeline pipeline(toy_corpus());
  const auto hits = pipeline.retrieve("route_nets fast mode", 2);
  ASSERT_FALSE(hits.empty());
  EXPECT_EQ(hits[0].doc_index, 0u);
}

TEST(Pipeline, HoldsTheCorpusExactlyOnce) {
  const RetrievalPipeline pipeline(toy_corpus());
  // One shared store: the lexical and dense indexes point at the same
  // vector, not copies of it.
  EXPECT_EQ(pipeline.bm25().documents().get(),
            pipeline.dense().documents().get());
  EXPECT_EQ(pipeline.documents().get(), pipeline.bm25().documents().get());
}

// -- determinism properties --------------------------------------------------

TEST(RagProperty, ScoreTiesOrderByDocIndex) {
  // Duplicate documents produce exactly tied scores everywhere; the order
  // among ties must be ascending doc index, in every component.
  const std::vector<std::string> corpus = {
      "clock tree synthesis balances skew",
      "clock tree synthesis balances skew",
      "clock tree synthesis balances skew",
      "placement legalizes the macros",
  };
  const Bm25Index bm25(corpus);
  const auto lexical = bm25.query("clock tree synthesis", 4);
  ASSERT_EQ(lexical.size(), 3u);
  for (std::size_t i = 1; i < lexical.size(); ++i) {
    EXPECT_EQ(lexical[i].score, lexical[i - 1].score);
    EXPECT_GT(lexical[i].doc_index, lexical[i - 1].doc_index);
  }

  const DenseIndex dense(corpus, HashedEmbedder(128, 3));
  const auto semantic = dense.query("clock tree synthesis balances skew", 3);
  ASSERT_EQ(semantic.size(), 3u);
  EXPECT_EQ(semantic[0].doc_index, 0u);
  EXPECT_EQ(semantic[1].doc_index, 1u);
  EXPECT_EQ(semantic[2].doc_index, 2u);

  const RetrievalPipeline pipeline(corpus);
  const auto fused = pipeline.retrieve("clock tree synthesis", 3);
  ASSERT_EQ(fused.size(), 3u);
  EXPECT_TRUE(std::is_sorted(
      fused.begin(), fused.end(),
      [](const RetrievalHit& a, const RetrievalHit& b) {
        return a.doc_index < b.doc_index;
      }));
}

TEST(RagProperty, RrfFusionIsInvariantUnderRetrieverListOrder) {
  const RetrievalPipeline pipeline(toy_corpus());
  const RetrievalConfig& config = pipeline.config();
  const std::string query = "the nets timing errors";
  const auto lexical =
      pipeline.bm25().query(query, config.candidates_per_retriever);
  const auto semantic =
      pipeline.dense().query(query, config.candidates_per_retriever);

  // Fold the candidate lists in both orders; the fused scores must be
  // bitwise-identical (commutative per-document accumulation), and must
  // match what the pipeline actually returns.
  const auto fuse = [&](const std::vector<RetrievalHit>& first,
                        const std::vector<RetrievalHit>& second) {
    std::map<std::size_t, double> fused;
    for (const auto* list : {&first, &second}) {
      for (std::size_t rank = 0; rank < list->size(); ++rank) {
        fused[(*list)[rank].doc_index] +=
            1.0 / (config.rrf_k + static_cast<double>(rank) + 1.0);
      }
    }
    std::vector<RetrievalHit> hits;
    for (const auto& [doc, score] : fused) hits.push_back({doc, score});
    std::sort(hits.begin(), hits.end(),
              [](const RetrievalHit& a, const RetrievalHit& b) {
                if (a.score != b.score) return a.score > b.score;
                return a.doc_index < b.doc_index;
              });
    return hits;
  };
  const auto ab = fuse(lexical, semantic);
  const auto ba = fuse(semantic, lexical);
  EXPECT_TRUE(hits_bitwise_equal(ab, ba));
  EXPECT_TRUE(hits_bitwise_equal(ab, pipeline.retrieve(query, ab.size())));
}

TEST(RagProperty, EmptyAndTokenlessQueriesReturnNoHits) {
  const RetrievalPipeline pipeline(toy_corpus());
  EXPECT_TRUE(pipeline.retrieve("", 5).empty());
  EXPECT_TRUE(pipeline.retrieve("   ", 5).empty());
  EXPECT_TRUE(pipeline.retrieve("?!, --- ...", 5).empty());
  EXPECT_TRUE(pipeline.retrieve_texts("", 5).empty());
  EXPECT_TRUE(pipeline.bm25().query("", 5).empty());
  EXPECT_TRUE(pipeline.dense().query("", 5).empty());
}

TEST(RagProperty, BatchedRetrievalMatchesSerialAtAnyPoolSize) {
  const auto corpus = synth_corpus(200);
  RetrievalConfig config;
  config.embed_dim = 64;
  config.ann_nlist = 8;
  const RetrievalPipeline pipeline(corpus, config);
  std::vector<std::string> queries;
  for (int q = 0; q < 37; ++q) {
    queries.push_back("what does op" + std::to_string(q * 5) + " update");
  }
  std::vector<std::vector<RetrievalHit>> serial(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    serial[i] = pipeline.retrieve(queries[i], 5);
  }
  for (const std::size_t workers : {std::size_t{1}, std::size_t{2},
                                    std::size_t{5}}) {
    ThreadPool pool(workers);
    const auto batched = pipeline.retrieve_batch(queries, 5, &pool);
    ASSERT_EQ(batched.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_TRUE(hits_bitwise_equal(batched[i], serial[i]))
          << "workers " << workers << " query " << i;
    }
  }
  // Null pool runs serially through the same code path.
  const auto null_pool = pipeline.retrieve_batch(queries, 5, nullptr);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_TRUE(hits_bitwise_equal(null_pool[i], serial[i]));
  }
}

// -- concurrency (exercised under tsan in CI) --------------------------------

TEST(RagConcurrency, ConcurrentBatchedRetrievalOnOnePipeline) {
  const auto corpus = synth_corpus(150);
  RetrievalConfig config;
  config.embed_dim = 64;
  config.ann_nlist = 6;
  const RetrievalPipeline pipeline(corpus, config);
  std::vector<std::string> queries;
  for (int q = 0; q < 24; ++q) {
    queries.push_back("command op" + std::to_string(q * 6));
  }
  const auto expected = pipeline.retrieve_batch(queries, 5, nullptr);

  // Several client threads share one immutable pipeline and one pool, each
  // issuing its own pooled batch (a parallel_for that finds another
  // caller's job in flight runs inline, so concurrent callers stay
  // isolated). Results must match the serial baseline exactly.
  ThreadPool pool(4);
  std::vector<std::thread> clients;
  std::vector<int> mismatches(4, 0);
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      for (int round = 0; round < 3; ++round) {
        const auto got = pipeline.retrieve_batch(queries, 5, &pool);
        for (std::size_t i = 0; i < expected.size(); ++i) {
          if (!hits_bitwise_equal(got[i], expected[i])) ++mismatches[t];
        }
      }
    });
  }
  for (auto& client : clients) client.join();
  for (int t = 0; t < 4; ++t) EXPECT_EQ(mismatches[t], 0) << "client " << t;
}

// -- persistence -------------------------------------------------------------

class RagStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("ca_rag_store_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "index.bin").string();
  }
  void TearDown() override {
    failpoint::disarm_all();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(RagStoreTest, SaveLoadRoundtripIsBitwiseIdentical) {
  const auto corpus = synth_corpus(300);
  RetrievalConfig config;
  config.embed_dim = 96;
  config.ann_nlist = 10;
  const RetrievalPipeline built(corpus, config);
  built.save(path_);
  const RetrievalPipeline loaded = RetrievalPipeline::load(path_, config);

  // Raw state: corpus, postings (with tf), embeddings, ANN layout.
  ASSERT_EQ(loaded.corpus_size(), built.corpus_size());
  EXPECT_EQ(*loaded.documents(), *built.documents());
  EXPECT_EQ(loaded.bm25().doc_token_counts(), built.bm25().doc_token_counts());
  ASSERT_EQ(loaded.bm25().postings().size(), built.bm25().postings().size());
  for (const auto& [term, list] : built.bm25().postings()) {
    const auto it = loaded.bm25().postings().find(term);
    ASSERT_NE(it, loaded.bm25().postings().end()) << term;
    ASSERT_EQ(it->second.size(), list.size()) << term;
    for (std::size_t i = 0; i < list.size(); ++i) {
      EXPECT_EQ(it->second[i].doc, list[i].doc);
      EXPECT_EQ(it->second[i].tf, list[i].tf);
    }
  }
  EXPECT_EQ(loaded.dense().embeddings(), built.dense().embeddings());
  EXPECT_EQ(loaded.ann().centroids(), built.ann().centroids());
  EXPECT_EQ(loaded.ann().lists(), built.ann().lists());

  // Behavior: rankings (ids AND scores) are bitwise-identical.
  for (const char* query :
       {"op12 routes the nets", "op250", "the scan chains", ""}) {
    EXPECT_TRUE(hits_bitwise_equal(built.retrieve(query, 10),
                                   loaded.retrieve(query, 10)))
        << "query: " << query;
  }

  // The loaded pipeline also holds its corpus once.
  EXPECT_EQ(loaded.bm25().documents().get(),
            loaded.dense().documents().get());
}

TEST_F(RagStoreTest, SaveWithoutAnnRoundtrips) {
  const RetrievalPipeline built(toy_corpus());  // ann_nlist 0 -> exact scan
  ASSERT_FALSE(built.has_ann());
  built.save(path_);
  const RetrievalPipeline loaded = RetrievalPipeline::load(path_);
  EXPECT_FALSE(loaded.has_ann());
  EXPECT_TRUE(hits_bitwise_equal(built.retrieve("route_nets fast", 3),
                                 loaded.retrieve("route_nets fast", 3)));
}

TEST_F(RagStoreTest, SuccessfulSaveLeavesNoTempLitter) {
  const RetrievalPipeline built(toy_corpus());
  built.save(path_);
  EXPECT_TRUE(std::filesystem::exists(path_));
  EXPECT_FALSE(std::filesystem::exists(fs_io::temp_path_for(path_)));
}

TEST_F(RagStoreTest, MissingFileFailsWithPathInError) {
  try {
    RetrievalPipeline::load((dir_ / "absent.bin").string());
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("absent.bin"), std::string::npos);
  }
}

// -- corruption (exercised under asan in CI) ---------------------------------

using RagCorruptionTest = RagStoreTest;

TEST_F(RagCorruptionTest, TruncatedFileIsRejectedAtEveryLength) {
  const RetrievalPipeline built(toy_corpus());
  built.save(path_);
  const auto full = std::filesystem::file_size(path_);
  // Every prefix must fail cleanly — footer gone, table gone, section cut.
  for (const std::uintmax_t keep :
       {std::uintmax_t{0}, std::uintmax_t{17}, full / 2, full - 1}) {
    std::filesystem::resize_file(path_, keep);
    try {
      RetrievalPipeline::load(path_);
      FAIL() << "expected Error at length " << keep;
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("truncated or corrupt"),
                std::string::npos)
          << e.what();
    }
    // Restore for the next iteration.
    std::filesystem::remove(path_);
    built.save(path_);
  }
}

TEST_F(RagCorruptionTest, BitflippedByteFailsAChecksum) {
  const RetrievalPipeline built(synth_corpus(50));
  built.save(path_);
  const auto size = std::filesystem::file_size(path_);
  for (const std::uintmax_t offset : {size / 4, size / 2, size - 8}) {
    std::fstream f(path_, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(offset));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x40);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(&byte, 1);
    f.close();
    EXPECT_THROW(RetrievalPipeline::load(path_), Error) << "offset " << offset;
    std::filesystem::remove(path_);
    built.save(path_);
  }
}

TEST_F(RagCorruptionTest, ReadFailpointBitflipIsCaught) {
  const RetrievalPipeline built(toy_corpus());
  built.save(path_);
  failpoint::Spec spec;
  spec.action = failpoint::Action::kBitflip;
  failpoint::arm("ragindex.read", spec);
  EXPECT_THROW(RetrievalPipeline::load(path_), Error);
  failpoint::disarm("ragindex.read");
  // Disarmed, the same file loads fine — the file itself was never touched.
  EXPECT_EQ(RetrievalPipeline::load(path_).corpus_size(), 4u);
}

TEST_F(RagCorruptionTest, ReadFailpointShortReadIsCaught) {
  const RetrievalPipeline built(toy_corpus());
  built.save(path_);
  failpoint::Spec spec;
  spec.action = failpoint::Action::kShortIo;
  spec.arg = 64;
  failpoint::arm("ragindex.read", spec);
  try {
    RetrievalPipeline::load(path_);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated or corrupt"),
              std::string::npos)
        << e.what();
  }
  failpoint::disarm("ragindex.read");
}

TEST_F(RagCorruptionTest, SaveFailpointLeavesNoFileAndNoLitter) {
  const RetrievalPipeline built(toy_corpus());
  failpoint::Spec spec;
  spec.action = failpoint::Action::kError;
  failpoint::arm("ragindex.save", spec);
  EXPECT_THROW(built.save(path_), Error);
  failpoint::disarm("ragindex.save");
  EXPECT_FALSE(std::filesystem::exists(path_));
  EXPECT_FALSE(std::filesystem::exists(fs_io::temp_path_for(path_)));
  // And the save works once disarmed.
  built.save(path_);
  EXPECT_EQ(RetrievalPipeline::load(path_).corpus_size(), 4u);
}

}  // namespace
}  // namespace chipalign
