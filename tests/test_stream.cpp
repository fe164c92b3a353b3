// Tests for the streaming subsystem: shard planning, the sharded
// reader/writer pair, and the bounded-memory streaming merge engine
// (byte-identity with the in-memory path, resume, checksums, budgets).

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "io/safetensors.hpp"
#include "merge/registry.hpp"
#include "model/checkpoint.hpp"
#include "stream/shard_layout.hpp"
#include "stream/shard_writer.hpp"
#include "stream/streaming_merge.hpp"
#include "stream/tensor_source.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"
#include "util/rng.hpp"

namespace chipalign {
namespace {

namespace fs = std::filesystem;

std::string read_file_bytes(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << path;
  return {std::istreambuf_iterator<char>(file),
          std::istreambuf_iterator<char>()};
}

/// A conformable 14-tensor checkpoint with varied shapes (~60 KB at f32).
Checkpoint make_checkpoint(std::uint64_t seed, const std::string& name) {
  Rng rng(seed);
  Checkpoint ckpt;
  ckpt.config().name = name;
  ckpt.config().vocab_size = 64;
  ckpt.config().d_model = 16;
  ckpt.config().n_layers = 3;
  ckpt.config().n_heads = 4;
  ckpt.config().n_kv_heads = 2;
  ckpt.config().d_ff = 32;
  ckpt.config().max_seq_len = 32;
  ckpt.put("embed.weight", Tensor::randn({64, 16}, rng, 0.1F));
  for (int layer = 0; layer < 3; ++layer) {
    const std::string prefix = "layers." + std::to_string(layer) + ".";
    ckpt.put(prefix + "attn.wq", Tensor::randn({16, 16}, rng, 0.1F));
    ckpt.put(prefix + "attn.wo", Tensor::randn({16, 16}, rng, 0.1F));
    ckpt.put(prefix + "mlp.w1", Tensor::randn({32, 16}, rng, 0.1F));
    ckpt.put(prefix + "norm.weight", Tensor::randn({16}, rng, 0.1F));
  }
  ckpt.put("norm.weight", Tensor::randn({16}, rng, 0.1F));
  return ckpt;
}

class StreamTest : public ::testing::Test {
 protected:
  std::string dir(const std::string& name) {
    const auto path = fs::temp_directory_path() / "ca_stream_tests" /
                      (std::string(::testing::UnitTest::GetInstance()
                                       ->current_test_info()
                                       ->name()) +
                       "_" + name);
    fs::remove_all(path);
    fs::create_directories(path);
    return path.string();
  }
};

TEST(ShardLayoutTest, ShardFileNameIsCanonical) {
  EXPECT_EQ(shard_file_name(1, 1), "model-00001-of-00001.safetensors");
  EXPECT_EQ(shard_file_name(2, 17), "model-00002-of-00017.safetensors");
  EXPECT_THROW(shard_file_name(0, 1), Error);
  EXPECT_THROW(shard_file_name(3, 2), Error);
}

TEST(ShardLayoutTest, PlanPacksNameSortedWithRolls) {
  // Four 40-byte tensors with a 100-byte budget: shards of 2+2.
  std::vector<std::pair<std::string, Shape>> entries = {
      {"a", {10}}, {"b", {10}}, {"c", {10}}, {"d", {10}}};
  const ShardPlan plan = plan_shards(entries, DType::kF32, 100);
  ASSERT_EQ(plan.shards.size(), 2u);
  EXPECT_EQ(plan.shards[0].filename, "model-00001-of-00002.safetensors");
  EXPECT_EQ(plan.shards[0].tensors.count("a"), 1u);
  EXPECT_EQ(plan.shards[0].tensors.count("b"), 1u);
  EXPECT_EQ(plan.shards[1].tensors.count("c"), 1u);
  EXPECT_EQ(plan.shards[0].data_size, 80u);
  EXPECT_EQ(plan.total_size, 160u);
  EXPECT_EQ(plan.shard_of.at("d"), 1u);
  // Offsets are contiguous within each shard, in name order.
  EXPECT_EQ(plan.shards[0].tensors.at("a").begin, 0u);
  EXPECT_EQ(plan.shards[0].tensors.at("b").begin, 40u);
}

TEST(ShardLayoutTest, PlanGivesOversizeTensorOwnShard) {
  std::vector<std::pair<std::string, Shape>> entries = {
      {"big", {100}}, {"small", {2}}};
  const ShardPlan plan = plan_shards(entries, DType::kF32, 64);
  ASSERT_EQ(plan.shards.size(), 2u);
  EXPECT_EQ(plan.shards[0].data_size, 400u);
}

TEST(ShardLayoutTest, PlanZeroBudgetMeansSingleShard) {
  std::vector<std::pair<std::string, Shape>> entries = {
      {"a", {1000}}, {"b", {1000}}};
  EXPECT_EQ(plan_shards(entries, DType::kF32, 0).shards.size(), 1u);
}

TEST(ShardLayoutTest, PlanRejectsUnsortedInput) {
  std::vector<std::pair<std::string, Shape>> entries = {{"b", {1}}, {"a", {1}}};
  EXPECT_THROW(plan_shards(entries, DType::kF32, 0), Error);
  std::vector<std::pair<std::string, Shape>> dupes = {{"a", {1}}, {"a", {1}}};
  EXPECT_THROW(plan_shards(dupes, DType::kF32, 0), Error);
}

TEST_F(StreamTest, ShardIndexRoundTrips) {
  const std::string out = dir("index");
  ShardIndex index;
  index.total_size = 1234;
  index.weight_map["w.a"] = "model-00001-of-00002.safetensors";
  index.weight_map["w.b"] = "model-00002-of-00002.safetensors";
  index.checksums["w.a"] = hash_to_hex(0xDEADBEEFULL);
  index.metadata["chipalign.config"] = "{\"name\":\"x\"}";
  const std::string path = index.save(out);

  const ShardIndex back = ShardIndex::load(path);
  EXPECT_EQ(back.total_size, 1234u);
  EXPECT_EQ(back.weight_map, index.weight_map);
  EXPECT_EQ(back.checksums, index.checksums);
  EXPECT_EQ(back.metadata, index.metadata);
  EXPECT_EQ(back.shard_files().size(), 2u);
}

TEST_F(StreamTest, ShardedSaveLoadRoundTripsAcrossThreeShards) {
  const Checkpoint original = make_checkpoint(11, "roundtrip");
  const std::string out = dir("ckpt");
  // ~17 KB total; 4 KB shards force several rolls.
  save_sharded_checkpoint(out, original, 4u << 10);

  const ShardedTensorSource source = ShardedTensorSource::open(out);
  EXPECT_GE(source.shard_count(), 3u);
  EXPECT_EQ(source.names().size(), original.tensors().size());

  const Checkpoint back = load_sharded_checkpoint(out);
  EXPECT_EQ(back.config(), original.config());
  for (const auto& [name, tensor] : original.tensors()) {
    const Tensor& loaded = back.at(name);
    ASSERT_TRUE(loaded.same_shape(tensor)) << name;
    for (std::int64_t i = 0; i < tensor.numel(); ++i) {
      ASSERT_EQ(loaded[i], tensor[i]) << name << "[" << i << "]";
    }
  }
  EXPECT_TRUE(verify_sharded_checkpoint(out).empty());
}

TEST_F(StreamTest, SingleShardIsByteIdenticalToSingleFileSave) {
  const Checkpoint ckpt = make_checkpoint(5, "golden");
  const std::string out = dir("sharded");
  const std::string single = dir("single") + "/ckpt.safetensors";
  ckpt.save(single, DType::kF32);
  save_sharded_checkpoint(out, ckpt, /*shard_size_bytes=*/0);

  const std::string shard_bytes =
      read_file_bytes(out + "/model-00001-of-00001.safetensors");
  EXPECT_EQ(shard_bytes, read_file_bytes(single));
}

TEST_F(StreamTest, LazyReadMatchesFullLoadForHalfStorage) {
  const Checkpoint ckpt = make_checkpoint(7, "lazy");
  const std::string file = dir("f16") + "/ckpt.safetensors";
  ckpt.save(file, DType::kF16);

  const SafetensorsFile full = load_safetensors(file);
  const ShardedTensorSource source = ShardedTensorSource::open(file);
  ASSERT_EQ(source.names().size(), full.tensors.size());
  for (const auto& [name, tensor] : full.tensors) {
    const Tensor lazy = source.read(name);
    ASSERT_TRUE(lazy.same_shape(tensor)) << name;
    for (std::int64_t i = 0; i < tensor.numel(); ++i) {
      ASSERT_EQ(lazy[i], tensor[i]) << name << "[" << i << "]";
    }
  }
  EXPECT_EQ(source.metadata().at("format"), "chipalign-checkpoint-v1");
}

TEST_F(StreamTest, IndexReferencingMissingShardThrows) {
  const std::string out = dir("missing");
  ShardIndex index;
  index.weight_map["w"] = "model-00001-of-00001.safetensors";
  index.save(out);
  EXPECT_THROW(ShardedTensorSource::open(out), Error);
}

TEST_F(StreamTest, IndexListingAbsentTensorThrows) {
  const Checkpoint ckpt = make_checkpoint(9, "absent");
  const std::string out = dir("absent");
  save_sharded_checkpoint(out, ckpt, 0);
  // Rewrite the manifest claiming one extra tensor in the existing shard.
  ShardIndex index = ShardIndex::load(out + "/" + kShardIndexFileName);
  index.weight_map["not.there"] = index.weight_map.begin()->second;
  index.save(out);
  EXPECT_THROW(ShardedTensorSource::open(out), Error);
}

TEST_F(StreamTest, VerifyDetectsCorruptedShard) {
  const Checkpoint ckpt = make_checkpoint(13, "corrupt");
  const std::string out = dir("corrupt");
  save_sharded_checkpoint(out, ckpt, 4u << 10);
  ASSERT_TRUE(verify_sharded_checkpoint(out).empty());

  // Flip one byte in the middle of the first shard's data section.
  const ShardedTensorSource source = ShardedTensorSource::open(out);
  const TensorRecord& rec = source.record("embed.weight");
  {
    std::fstream file(rec.file,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(rec.begin + rec.byte_size() / 2));
    const char corrupted = '\x5A';
    file.write(&corrupted, 1);
  }
  const std::vector<std::string> bad = verify_sharded_checkpoint(out);
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0], "embed.weight");
}

// ---------------------------------------------------------------------------
// Streaming merge engine
// ---------------------------------------------------------------------------

// gtest names each value-parameterized test after a byte dump of its
// parameter, so the parameter holds no pointers: a std::string member would
// put a heap address into the test names and change them on every run.
struct StreamingMergeCase {
  char method[39];
  bool needs_base;
};
static_assert(sizeof(StreamingMergeCase) == 40,
              "size is part of the printed test names");

class StreamingMergeTest
    : public StreamTest,
      public ::testing::WithParamInterface<StreamingMergeCase> {
 protected:
  /// Saves chip/instruct/base as multi-shard checkpoints and returns
  /// (in-memory merged, sources dir).
  void prepare() {
    chip_ = make_checkpoint(21, "chip");
    instruct_ = make_checkpoint(22, "instruct");
    base_ = make_checkpoint(23, "base");
    src_dir_ = dir("src");
    save_sharded_checkpoint(src_dir_ + "/chip", chip_, 4u << 10);
    save_sharded_checkpoint(src_dir_ + "/instruct", instruct_, 4u << 10);
    save_sharded_checkpoint(src_dir_ + "/base", base_, 4u << 10);
  }

  StreamingMergeReport run_streaming(const std::string& out,
                                     StreamingMergeConfig config) {
    const auto merger = create_merger(GetParam().method);
    const ShardedTensorSource chip =
        ShardedTensorSource::open(src_dir_ + "/chip");
    const ShardedTensorSource instruct =
        ShardedTensorSource::open(src_dir_ + "/instruct");
    const ShardedTensorSource base =
        ShardedTensorSource::open(src_dir_ + "/base");
    return merge_streaming(*merger, chip, instruct,
                           GetParam().needs_base ? &base : nullptr, options_,
                           config, out);
  }

  Checkpoint run_in_memory() {
    const auto merger = create_merger(GetParam().method);
    return merge_checkpoints(*merger, chip_, instruct_,
                             GetParam().needs_base ? &base_ : nullptr,
                                 options_);
  }

  void expect_identical(const Checkpoint& expected, const std::string& out_dir,
                        DType dtype) {
    const ShardedTensorSource merged = ShardedTensorSource::open(out_dir);
    ASSERT_EQ(merged.names().size(), expected.tensors().size());
    for (const auto& [name, tensor] : expected.tensors()) {
      const std::vector<std::uint8_t> expected_bytes =
          encode_tensor_bytes(tensor, dtype);
      EXPECT_EQ(merged.read_bytes(name), expected_bytes)
          << "tensor '" << name << "' differs between paths";
    }
    const Checkpoint loaded = load_sharded_checkpoint(out_dir);
    EXPECT_EQ(loaded.config(), expected.config());
    EXPECT_TRUE(verify_sharded_checkpoint(out_dir).empty());
  }

  Checkpoint chip_, instruct_, base_;
  std::string src_dir_;
  MergeOptions options_;
};

TEST_P(StreamingMergeTest, MultiShardOutputMatchesInMemoryBitExactly) {
  prepare();
  ASSERT_GE(ShardedTensorSource::open(src_dir_ + "/chip").shard_count(), 3u);
  ASSERT_GE(chip_.tensors().size(), 12u);

  StreamingMergeConfig config;
  config.shard_size_bytes = 4u << 10;  // several output shards
  config.log_every = 0;
  const std::string out = dir("out");
  const StreamingMergeReport report = run_streaming(out, config);

  EXPECT_EQ(report.tensor_count, chip_.tensors().size());
  EXPECT_GE(report.shard_count, 3u);
  EXPECT_EQ(report.resumed_count, 0u);
  EXPECT_GT(report.bytes_written, 0u);
  EXPECT_FALSE(fs::exists(out + "/merge.journal"));

  expect_identical(run_in_memory(), out, DType::kF32);
}

TEST_P(StreamingMergeTest, SingleShardFileIsByteIdenticalToInMemorySave) {
  prepare();
  StreamingMergeConfig config;
  config.shard_size_bytes = 0;  // single shard
  config.log_every = 0;
  const std::string out = dir("out");
  run_streaming(out, config);

  const std::string single = dir("ref") + "/merged.safetensors";
  run_in_memory().save(single, DType::kF32);
  EXPECT_EQ(read_file_bytes(out + "/model-00001-of-00001.safetensors"),
            read_file_bytes(single));
}

TEST_P(StreamingMergeTest, HalfPrecisionOutputMatchesInMemoryEncode) {
  prepare();
  StreamingMergeConfig config;
  config.shard_size_bytes = 8u << 10;
  config.out_dtype = DType::kBF16;
  config.log_every = 0;
  const std::string out = dir("out");
  run_streaming(out, config);

  const Checkpoint expected = run_in_memory();
  const ShardedTensorSource merged = ShardedTensorSource::open(out);
  for (const auto& [name, tensor] : expected.tensors()) {
    EXPECT_EQ(merged.read_bytes(name), encode_tensor_bytes(tensor,
                                                           DType::kBF16))
        << name;
  }
}

TEST_P(StreamingMergeTest, InterruptedMergeResumesToIdenticalBytes) {
  prepare();
  StreamingMergeConfig config;
  config.shard_size_bytes = 4u << 10;
  config.log_every = 0;

  // Reference: one clean streaming run.
  const std::string clean = dir("clean");
  run_streaming(clean, config);

  // Interrupted run: fail after 5 tensors, journal left behind.
  const std::string out = dir("out");
  StreamingMergeConfig failing = config;
  failing.fail_after_tensors = 5;
  EXPECT_THROW(run_streaming(out, failing), Error);
  EXPECT_TRUE(fs::exists(out + "/merge.journal"));
  EXPECT_FALSE(fs::exists(out + "/" + std::string(kShardIndexFileName)));

  // Resume completes, skipping at least the journaled tensors.
  StreamingMergeConfig resuming = config;
  resuming.resume = true;
  const StreamingMergeReport report = run_streaming(out, resuming);
  EXPECT_GE(report.resumed_count, 5u);
  EXPECT_LT(report.resumed_count, chip_.tensors().size());
  EXPECT_FALSE(fs::exists(out + "/merge.journal"));

  // Byte-identical to the clean run, and to the in-memory path.
  const ShardedTensorSource a = ShardedTensorSource::open(clean);
  const ShardedTensorSource b = ShardedTensorSource::open(out);
  for (const std::string& name : a.names()) {
    EXPECT_EQ(a.read_bytes(name), b.read_bytes(name)) << name;
  }
  expect_identical(run_in_memory(), out, DType::kF32);
}

TEST_P(StreamingMergeTest, ResumeRejectsChangedMergePlan) {
  prepare();
  StreamingMergeConfig config;
  config.shard_size_bytes = 4u << 10;
  config.log_every = 0;
  config.fail_after_tensors = 3;
  const std::string out = dir("out");
  EXPECT_THROW(run_streaming(out, config), Error);

  // Same resume, different lambda => different plan fingerprint.
  StreamingMergeConfig resuming;
  resuming.shard_size_bytes = config.shard_size_bytes;
  resuming.log_every = 0;
  resuming.resume = true;
  options_.lambda = 0.25;
  EXPECT_THROW(run_streaming(out, resuming), Error);
}

TEST_P(StreamingMergeTest, InflightBudgetIsRespected) {
  prepare();
  // Budget sized to roughly two of the largest tensors' working sets: the
  // engine must keep its accounted in-flight bytes under it.
  StreamingMergeConfig config;
  config.shard_size_bytes = 4u << 10;
  config.max_inflight_bytes = 64u << 10;
  config.log_every = 0;
  const std::string out = dir("out");
  const StreamingMergeReport report = run_streaming(out, config);
  EXPECT_LE(report.max_inflight_bytes_observed, config.max_inflight_bytes);
  expect_identical(run_in_memory(), out, DType::kF32);
}

// Thread-count invariance: the merge workers fan out over a pool, but every
// kernel reduction uses fixed-shape blocking and each tensor is written by
// exactly one task, so the output files must be byte-identical whether the
// pool has one worker or many.
TEST_P(StreamingMergeTest, OutputBytesAreInvariantToPoolSize) {
  prepare();
  ThreadPool solo(1);
  ThreadPool many(4);

  StreamingMergeConfig config;
  config.shard_size_bytes = 4u << 10;  // several output shards
  config.log_every = 0;

  const std::string out_solo = dir("out_solo");
  config.pool = &solo;
  run_streaming(out_solo, config);

  const std::string out_many = dir("out_many");
  config.pool = &many;
  run_streaming(out_many, config);

  // Compare every produced file (shards + index) byte-for-byte.
  std::vector<std::string> names_solo;
  for (const auto& entry : fs::directory_iterator(out_solo)) {
    names_solo.push_back(entry.path().filename().string());
  }
  ASSERT_GE(names_solo.size(), 2u);
  for (const std::string& name : names_solo) {
    ASSERT_TRUE(fs::exists(out_many + "/" + name)) << name;
    EXPECT_EQ(read_file_bytes(out_solo + "/" + name),
              read_file_bytes(out_many + "/" + name))
        << "file '" << name << "' differs between pool sizes";
  }
  EXPECT_EQ(std::distance(fs::directory_iterator(out_many),
                          fs::directory_iterator{}),
            static_cast<std::ptrdiff_t>(names_solo.size()));
}

// The pipeline=false escape hatch (strictly serial, on the calling thread)
// must produce exactly the same files as the pipelined engine.
TEST_P(StreamingMergeTest, SerialEscapeHatchMatchesPipelinedByteForByte) {
  prepare();
  StreamingMergeConfig config;
  config.shard_size_bytes = 4u << 10;
  config.log_every = 0;

  const std::string out_pipe = dir("out_pipe");
  config.pipeline = true;
  const StreamingMergeReport pipelined = run_streaming(out_pipe, config);
  EXPECT_TRUE(pipelined.pipelined);

  const std::string out_serial = dir("out_serial");
  config.pipeline = false;
  const StreamingMergeReport serial = run_streaming(out_serial, config);
  EXPECT_FALSE(serial.pipelined);
  EXPECT_EQ(serial.bytes_written, pipelined.bytes_written);

  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(out_serial)) {
    const std::string name = entry.path().filename().string();
    ASSERT_TRUE(fs::exists(out_pipe + "/" + name)) << name;
    EXPECT_EQ(read_file_bytes(out_serial + "/" + name),
              read_file_bytes(out_pipe + "/" + name))
        << "file '" << name << "' differs between serial and pipelined";
    ++files;
  }
  EXPECT_GE(files, 2u);
  expect_identical(run_in_memory(), out_serial, DType::kF32);
}

// Every scheduling knob must be invisible in the output bytes: io thread
// count, prefetch depth, and their combination with a tiny byte budget.
TEST_P(StreamingMergeTest, IoAndPrefetchKnobsAreByteInvariant) {
  prepare();
  StreamingMergeConfig reference;
  reference.shard_size_bytes = 4u << 10;
  reference.log_every = 0;
  const std::string ref_out = dir("ref");
  run_streaming(ref_out, reference);

  const struct {
    std::size_t io_threads;
    std::size_t prefetch;
    std::uint64_t budget;
  } cases[] = {{1, 1, 1}, {1, 4, 64u << 10}, {3, 2, 32u << 10}, {4, 16, 1}};
  int case_id = 0;
  for (const auto& knobs : cases) {
    StreamingMergeConfig config = reference;
    config.io_threads = knobs.io_threads;
    config.prefetch_tensors = knobs.prefetch;
    config.max_inflight_bytes = knobs.budget;
    const std::string out = dir("out" + std::to_string(case_id++));
    run_streaming(out, config);
    for (const auto& entry : fs::directory_iterator(ref_out)) {
      const std::string name = entry.path().filename().string();
      EXPECT_EQ(read_file_bytes(out + "/" + name),
                read_file_bytes(ref_out + "/" + name))
          << "file '" << name << "' differs at io_threads="
          << knobs.io_threads << " prefetch=" << knobs.prefetch
          << " budget=" << knobs.budget;
    }
  }
}

// Kill-at-the-wrong-moment torture: a journal whose final line was torn by
// the kill (partial append, no trailing newline) must have that entry
// discarded on resume — the engine redoes exactly that tensor, and only it.
TEST_P(StreamingMergeTest, TornTrailingJournalEntryIsDiscardedOnResume) {
  prepare();
  StreamingMergeConfig config;
  config.shard_size_bytes = 4u << 10;
  config.log_every = 0;

  const std::string out = dir("out");
  StreamingMergeConfig failing = config;
  failing.fail_after_tensors = 5;
  EXPECT_THROW(run_streaming(out, failing), Error);

  // The writer journals in plan order, so exactly 5 entries exist. Tear the
  // last one: chop a few bytes off the file end, leaving a partial line
  // with no terminating newline — exactly what a mid-append kill leaves.
  const std::string journal = out + "/merge.journal";
  ASSERT_TRUE(fs::exists(journal));
  const std::uint64_t size = fs::file_size(journal);
  fs::resize_file(journal, size - 4);

  StreamingMergeConfig resuming = config;
  resuming.resume = true;
  const StreamingMergeReport report = run_streaming(out, resuming);
  EXPECT_EQ(report.resumed_count, 4u);  // 5 journaled, 1 torn -> 4 trusted
  EXPECT_FALSE(fs::exists(journal));
  expect_identical(run_in_memory(), out, DType::kF32);
}

// A corrupted (complete but garbled) journal entry is skipped the same way:
// its tensor is remerged, every other journaled tensor is trusted.
TEST_P(StreamingMergeTest, CorruptedJournalEntryIsRedoneOnResume) {
  prepare();
  StreamingMergeConfig config;
  config.shard_size_bytes = 4u << 10;
  config.log_every = 0;

  const std::string out = dir("out");
  StreamingMergeConfig failing = config;
  failing.fail_after_tensors = 5;
  EXPECT_THROW(run_streaming(out, failing), Error);

  // Garble the checksum of the second entry (line 3: magic + entry 1 + it).
  const std::string journal = out + "/merge.journal";
  std::vector<std::string> lines;
  {
    std::ifstream in(journal);
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 6u);  // magic + 5 entries
  lines[2] = "done not-a-checksum " + lines[2].substr(lines[2].rfind(' ') + 1);
  {
    std::ofstream rewrite(journal, std::ios::trunc);
    for (const std::string& line : lines) rewrite << line << '\n';
  }

  StreamingMergeConfig resuming = config;
  resuming.resume = true;
  const StreamingMergeReport report = run_streaming(out, resuming);
  EXPECT_EQ(report.resumed_count, 4u);
  expect_identical(run_in_memory(), out, DType::kF32);
}

// Mid-pipeline interruption: the fault hook fires inside the writer thread
// while prefetch/compute stages are still busy; the engine must drain,
// surface the error, and leave a plan-order journal that resumes cleanly.
TEST_P(StreamingMergeTest, PipelineInterruptionLeavesResumableJournal) {
  prepare();
  StreamingMergeConfig config;
  config.shard_size_bytes = 4u << 10;
  config.log_every = 0;
  config.io_threads = 3;
  config.prefetch_tensors = 8;

  const std::string out = dir("out");
  StreamingMergeConfig failing = config;
  failing.fail_after_tensors = 3;
  EXPECT_THROW(run_streaming(out, failing), Error);

  // In-plan-order commits: the journal holds exactly the magic line plus
  // the first 3 tensors in name-sorted order, each line complete.
  std::vector<std::string> lines;
  {
    std::ifstream in(out + "/merge.journal");
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 4u);
  const ShardedTensorSource chip =
      ShardedTensorSource::open(src_dir_ + "/chip");
  for (std::size_t i = 0; i < 3; ++i) {
    const std::string& expected_name = chip.names()[i];
    EXPECT_EQ(lines[i + 1].substr(lines[i + 1].rfind(' ') + 1), expected_name);
  }

  StreamingMergeConfig resuming = config;
  resuming.resume = true;
  const StreamingMergeReport report = run_streaming(out, resuming);
  EXPECT_EQ(report.resumed_count, 3u);
  expect_identical(run_in_memory(), out, DType::kF32);
}

/// Delegates to a real merger but throws on one tensor, so a failure rises
/// in the merge stage rather than in a reader or the writer.
class FailingMerger final : public Merger {
 public:
  FailingMerger(const Merger& inner, std::string fail_on)
      : inner_(inner), fail_on_(std::move(fail_on)) {}
  std::string name() const override { return inner_.name(); }
  bool requires_base() const override { return inner_.requires_base(); }
  Tensor merge_tensor(const std::string& tensor_name, const Tensor& chip,
                      const Tensor& instruct, const Tensor* base,
                      const MergeOptions& options, Rng& rng) const override {
    if (tensor_name == fail_on_) CA_THROW("merge of '" << tensor_name << "'");
    return inner_.merge_tensor(tensor_name, chip, instruct, base, options,
                               rng);
  }

 private:
  const Merger& inner_;
  std::string fail_on_;
};

// A merge-stage failure on the k-th tensor must wind the pipeline down and
// rethrow, at any merge pool width, leaving a journal of complete lines
// that is a plan-order prefix of at most k tensors and resumes with the
// real merger to the in-memory bytes.
TEST_P(StreamingMergeTest, MergeStageFailureLeavesResumableJournal) {
  prepare();
  const ShardedTensorSource chip =
      ShardedTensorSource::open(src_dir_ + "/chip");
  const ShardedTensorSource instruct =
      ShardedTensorSource::open(src_dir_ + "/instruct");
  const ShardedTensorSource base =
      ShardedTensorSource::open(src_dir_ + "/base");
  const auto real = create_merger(GetParam().method);
  constexpr std::size_t kFailAt = 5;
  const FailingMerger failing(*real, chip.names()[kFailAt]);

  for (const std::size_t pool_size : {std::size_t{1}, std::size_t{4}}) {
    ThreadPool pool(pool_size);
    StreamingMergeConfig config;
    config.shard_size_bytes = 4u << 10;
    config.log_every = 0;
    config.io_threads = 3;
    config.prefetch_tensors = 8;
    config.pool = &pool;
    const std::string out = dir("out" + std::to_string(pool_size));
    EXPECT_THROW(merge_streaming(failing, chip, instruct,
                                 GetParam().needs_base ? &base : nullptr,
                                 options_, config, out),
                 Error)
        << "pool " << pool_size;

    const std::string journal = read_file_bytes(out + "/merge.journal");
    ASSERT_FALSE(journal.empty());
    EXPECT_EQ(journal.back(), '\n') << "torn journal line";
    std::vector<std::string> lines;
    std::istringstream in(journal);
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    ASSERT_GE(lines.size(), 1u);
    ASSERT_LE(lines.size() - 1, kFailAt) << "pool " << pool_size;
    for (std::size_t i = 1; i < lines.size(); ++i) {
      EXPECT_EQ(lines[i].substr(lines[i].rfind(' ') + 1), chip.names()[i - 1])
          << "journal line " << i << ", pool " << pool_size;
    }

    config.resume = true;
    const StreamingMergeReport report =
        merge_streaming(*real, chip, instruct,
                        GetParam().needs_base ? &base : nullptr, options_,
                        config, out);
    EXPECT_EQ(report.resumed_count, lines.size() - 1);
    expect_identical(run_in_memory(), out, DType::kF32);
  }
}

// The prefetch stage verifies every read against the source manifest's
// XXH64: a corrupt input shard must fail the merge loudly, in both engines.
TEST_P(StreamingMergeTest, CorruptSourceShardFailsTheMerge) {
  prepare();
  const ShardedTensorSource chip =
      ShardedTensorSource::open(src_dir_ + "/chip");
  const TensorRecord& rec = chip.record("embed.weight");
  {
    std::fstream file(rec.file,
                      std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(static_cast<std::streamoff>(rec.begin + rec.byte_size() / 2));
    const char corrupted = '\x5A';
    file.write(&corrupted, 1);
  }
  StreamingMergeConfig config;
  config.shard_size_bytes = 4u << 10;
  config.log_every = 0;
  EXPECT_THROW(run_streaming(dir("out_pipe"), config), Error);
  config.pipeline = false;
  EXPECT_THROW(run_streaming(dir("out_serial"), config), Error);
}

TEST_P(StreamingMergeTest, TinyBudgetStillMakesProgress) {
  prepare();
  // Budget smaller than any single tensor: the admit-one rule serializes
  // the pipeline but the merge still completes and matches.
  StreamingMergeConfig config;
  config.shard_size_bytes = 4u << 10;
  config.max_inflight_bytes = 1;
  config.log_every = 0;
  const std::string out = dir("out");
  run_streaming(out, config);
  expect_identical(run_in_memory(), out, DType::kF32);
}

/// Disarms every failpoint on scope exit, so a failed assertion cannot leak
/// an armed site into later tests.
struct FailpointGuard {
  ~FailpointGuard() { failpoint::disarm_all(); }
};

// Resuming under a different output dtype would interleave old-dtype and
// new-dtype tensors in one checkpoint; the plan fingerprint must refuse.
TEST_P(StreamingMergeTest, ResumeRejectsChangedOutDtype) {
  prepare();
  StreamingMergeConfig config;
  config.shard_size_bytes = 4u << 10;
  config.log_every = 0;
  config.fail_after_tensors = 3;
  const std::string out = dir("out");
  EXPECT_THROW(run_streaming(out, config), Error);

  StreamingMergeConfig resuming;
  resuming.shard_size_bytes = config.shard_size_bytes;
  resuming.log_every = 0;
  resuming.resume = true;
  resuming.out_dtype = DType::kBF16;
  try {
    run_streaming(out, resuming);
    FAIL() << "resume with a changed out_dtype must be refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("different merge plan"),
              std::string::npos)
        << e.what();
  }
}

// A journal entry vouches for bytes in a shard file; if that file vanished
// between runs, the entry must not be trusted and the tensor is remerged.
TEST_P(StreamingMergeTest, DeletedShardInvalidatesItsJournaledTensors) {
  prepare();
  StreamingMergeConfig config;
  config.shard_size_bytes = 4u << 10;
  config.log_every = 0;

  const std::string out = dir("out");
  StreamingMergeConfig failing = config;
  failing.fail_after_tensors = 5;
  EXPECT_THROW(run_streaming(out, failing), Error);

  // Delete the first output shard: it holds the earliest plan-order
  // tensors, i.e. journaled ones.
  bool removed = false;
  for (const auto& entry : fs::directory_iterator(out)) {
    if (entry.path().filename().string().rfind("model-00001-", 0) == 0) {
      fs::remove(entry.path());
      removed = true;
    }
  }
  ASSERT_TRUE(removed);

  StreamingMergeConfig resuming = config;
  resuming.resume = true;
  const StreamingMergeReport report = run_streaming(out, resuming);
  EXPECT_LT(report.resumed_count, 5u);  // the deleted shard's entries dropped
  expect_identical(run_in_memory(), out, DType::kF32);
}

// A corrupted output manifest is detected on open, and a rerun over the
// same directory rebuilds it (the shards themselves are still valid).
TEST_P(StreamingMergeTest, CorruptOutputIndexIsDetectedAndRebuiltByRerun) {
  prepare();
  StreamingMergeConfig config;
  config.shard_size_bytes = 4u << 10;
  config.log_every = 0;
  const std::string out = dir("out");
  run_streaming(out, config);

  const std::string index_path =
      out + "/" + std::string(kShardIndexFileName);
  fs::resize_file(index_path, fs::file_size(index_path) / 2);  // truncate
  try {
    ShardedTensorSource::open(out);
    FAIL() << "a truncated index.json must not open";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("truncated or corrupt"),
              std::string::npos)
        << e.what();
  }

  StreamingMergeConfig rerun = config;
  rerun.resume = true;  // no journal left: a full, shard-reusing remerge
  run_streaming(out, rerun);
  expect_identical(run_in_memory(), out, DType::kF32);
}

// Transient read faults (injected EINTR-style failures) are retried with
// backoff; the merge completes with every source read checksum-verified.
TEST_P(StreamingMergeTest, TransientReadFaultsAreRetriedToCompletion) {
  prepare();
  StreamingMergeConfig config;
  config.shard_size_bytes = 4u << 10;
  config.log_every = 0;
  config.pipeline = false;
  config.read_retry.max_attempts = 5;
  config.read_retry.backoff_ms = 1;

  FailpointGuard guard;
  failpoint::arm_from_text("source.read=transientx3");
  const std::string out = dir("out");
  const StreamingMergeReport report = run_streaming(out, config);

  EXPECT_EQ(report.read_retries, 3u);
  const std::size_t sources = GetParam().needs_base ? 3u : 2u;
  EXPECT_EQ(report.source_checksums_verified,
            chip_.tensors().size() * sources);
  expect_identical(run_in_memory(), out, DType::kF32);
}

// A bit flipped in a read buffer fails checksum verification, which counts
// as transient: the retry re-reads clean bytes and re-verifies them.
TEST_P(StreamingMergeTest, BitflippedReadIsHealedByRetry) {
  prepare();
  StreamingMergeConfig config;
  config.shard_size_bytes = 4u << 10;
  config.log_every = 0;
  config.pipeline = false;
  config.read_retry.max_attempts = 3;
  config.read_retry.backoff_ms = 1;

  FailpointGuard guard;
  failpoint::arm_from_text("source.read=bitflipx1");
  const std::string out = dir("out");
  const StreamingMergeReport report = run_streaming(out, config);

  EXPECT_EQ(report.read_retries, 1u);
  expect_identical(run_in_memory(), out, DType::kF32);
}

// Without retries enabled (max_attempts = 1, the default), a persistent
// transient fault surfaces as RetriesExhaustedError — the distinct class
// merge_cli maps to its own exit code — and leaves a resumable journal.
TEST_P(StreamingMergeTest, ExhaustedRetriesRaiseDistinctError) {
  prepare();
  StreamingMergeConfig config;
  config.shard_size_bytes = 4u << 10;
  config.log_every = 0;
  config.pipeline = false;

  FailpointGuard guard;
  failpoint::arm_from_text("source.read=transient");
  const std::string out = dir("out");
  EXPECT_THROW(run_streaming(out, config), RetriesExhaustedError);
  EXPECT_TRUE(fs::exists(out + "/merge.journal"));

  // Once the fault clears, the same directory resumes to a full merge.
  failpoint::disarm_all();
  StreamingMergeConfig resuming = config;
  resuming.resume = true;
  run_streaming(out, resuming);
  expect_identical(run_in_memory(), out, DType::kF32);
}

INSTANTIATE_TEST_SUITE_P(
    Methods, StreamingMergeTest,
    ::testing::Values(StreamingMergeCase{"chipalign", false},
                      StreamingMergeCase{"ties", true}),
    [](const auto& info) { return std::string(info.param.method); });

// mark_written feeds finish()'s completeness check, so a double mark or an
// off-plan name would let a merge "finish" with a tensor never written.
TEST_F(StreamTest, MarkWrittenRejectsDuplicatesAndOffPlanNames) {
  std::vector<std::pair<std::string, Shape>> entries = {{"a", {4}},
                                                        {"b", {4}}};
  ShardPlan plan = plan_shards(entries, DType::kF32, 0);
  ShardSetWriter writer(dir("out"), std::move(plan), {});
  writer.mark_written("a");
  EXPECT_THROW(writer.mark_written("a"), Error);
  EXPECT_THROW(writer.mark_written("off-plan"), Error);
  // The same ledger backs write_tensor: a marked tensor cannot be written
  // again either.
  EXPECT_THROW(writer.write_tensor("a", std::vector<std::uint8_t>(16)),
               Error);
  writer.mark_written("b");
  EXPECT_EQ(writer.written_count(), 2u);
}

TEST_F(StreamTest, StreamingRequiresBaseForTaskVectorMethods) {
  const Checkpoint chip = make_checkpoint(31, "chip");
  const Checkpoint instruct = make_checkpoint(32, "instruct");
  const std::string src = dir("src");
  save_sharded_checkpoint(src + "/chip", chip, 0);
  save_sharded_checkpoint(src + "/instruct", instruct, 0);
  const auto merger = create_merger("ties");
  const ShardedTensorSource chip_src = ShardedTensorSource::open(src + "/chip");
  const ShardedTensorSource instruct_src =
      ShardedTensorSource::open(src + "/instruct");
  EXPECT_THROW(merge_streaming(*merger, chip_src, instruct_src, nullptr,
                               MergeOptions{}, StreamingMergeConfig{},
                               dir("out")),
               Error);
}

TEST_F(StreamTest, StreamingRejectsNonConformableSources) {
  Checkpoint chip = make_checkpoint(41, "chip");
  Checkpoint instruct = make_checkpoint(42, "instruct");
  instruct.tensors().erase("norm.weight");
  const std::string src = dir("src");
  save_sharded_checkpoint(src + "/chip", chip, 0);
  save_sharded_checkpoint(src + "/instruct", instruct, 0);
  const auto merger = create_merger("chipalign");
  const ShardedTensorSource chip_src = ShardedTensorSource::open(src + "/chip");
  const ShardedTensorSource instruct_src =
      ShardedTensorSource::open(src + "/instruct");
  EXPECT_THROW(merge_streaming(*merger, chip_src, instruct_src, nullptr,
                               MergeOptions{}, StreamingMergeConfig{},
                               dir("out")),
               Error);
}

}  // namespace
}  // namespace chipalign
