#include "stream/streaming_merge.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "io/safetensors.hpp"
#include "model/checkpoint.hpp"
#include "stream/shard_writer.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/fs_io.hpp"
#include "util/hash.hpp"
#include "util/logging.hpp"
#include "util/string_utils.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace chipalign {

namespace {

constexpr const char* kJournalFileName = "merge.journal";
constexpr const char* kJournalMagic = "chipalign-merge-journal-v1";

void hash_double(Xxh64Stream& stream, double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, 8);
  stream.update_u64(bits);
}

/// Fingerprints everything that determines the output bytes: method,
/// hyperparameters, output layout, and the tensor directory. A journal from
/// a run with any of these changed must not be resumed. Pipeline knobs
/// (io_threads, prefetch_tensors, pipeline, pool) are deliberately absent:
/// they never change the bytes, so a merge may be resumed under different
/// scheduling settings.
std::uint64_t plan_fingerprint(const Merger& merger,
                               const MergeOptions& options,
                               const StreamingMergeConfig& config,
                               const std::vector<std::string>& names,
                               const TensorSource& chip) {
  Xxh64Stream stream;
  stream.update(merger.name());
  hash_double(stream, options.lambda);
  hash_double(stream, options.density);
  hash_double(stream, options.tv_scale);
  hash_double(stream, options.della_window);
  hash_double(stream, options.breadcrumbs_outlier_frac);
  hash_double(stream, options.theta_epsilon);
  stream.update_u64(options.seed);
  for (const auto& [suffix, lambda] : options.lambda_overrides) {
    stream.update(suffix);
    hash_double(stream, lambda);
  }
  stream.update(dtype_name(config.out_dtype));
  stream.update_u64(config.shard_size_bytes);
  for (const std::string& name : names) {
    stream.update(name);
    for (std::int64_t dim : chip.record(name).shape) {
      stream.update_u64(static_cast<std::uint64_t>(dim));
    }
  }
  return stream.digest();
}

struct JournalState {
  std::uint64_t fingerprint = 0;
  /// tensor name -> output-bytes checksum hex.
  std::map<std::string, std::string> done;
};

/// Parses a journal, trusting only complete lines. The writer appends one
/// '\n'-terminated line per committed tensor, so a kill mid-append leaves at
/// most one unterminated final line — which must be discarded even when it
/// happens to split into the right number of fields (a truncated tensor
/// name could otherwise alias a different, never-written tensor).
JournalState read_journal(const std::string& path) {
  JournalState state;
  std::ifstream file(path, std::ios::binary);
  if (!file.good()) return state;
  const std::string content{std::istreambuf_iterator<char>(file),
                            std::istreambuf_iterator<char>()};
  std::size_t begin = 0;
  bool first = true;
  std::size_t torn = 0;
  while (begin < content.size()) {
    const std::size_t newline = content.find('\n', begin);
    if (newline == std::string::npos) {
      torn = content.size() - begin;  // torn trailing entry: discard
      break;
    }
    const std::string line = content.substr(begin, newline - begin);
    begin = newline + 1;
    const std::vector<std::string> fields = split_whitespace(line);
    if (first) {
      first = false;
      CA_CHECK(fields.size() == 2 && fields[0] == kJournalMagic,
               "'" << path << "' is not a chipalign merge journal");
      state.fingerprint = hash_from_hex(fields[1]);
      continue;
    }
    // Corrupted (not merely torn) entries are skipped, not trusted: wrong
    // field count, wrong tag, or a checksum that is not 16 hex digits.
    if (fields.size() != 3 || fields[0] != "done") continue;
    if (fields[1].size() != 16) continue;
    state.done[fields[2]] = fields[1];
  }
  if (first) {
    // Even the header line never completed: treat as no journal at all.
    return JournalState{};
  }
  if (torn > 0) {
    CA_LOG_WARN("journal '" << path << "' ends in a torn " << torn
                            << "-byte entry (killed mid-append); discarding it"
                               " — that tensor will be remerged");
  }
  return state;
}

/// Seek-reads one tensor's storage bytes, verifies them against the
/// source's recorded checksum when one exists, and decodes to fp32.
/// Transient failures — short reads, EINTR, checksum mismatches — are
/// retried per `retry` with exponential backoff, re-reading AND
/// re-verifying each attempt; attempts exhausted becomes
/// RetriesExhaustedError. Everything else (missing tensor, bad header)
/// stays a fail-fast permanent Error.
Tensor read_verified(const TensorSource& source, const std::string& name,
                     const RetryPolicy& retry,
                     std::atomic<std::uint64_t>& bytes_read,
                     std::atomic<std::size_t>& verified,
                     std::atomic<std::size_t>& retried) {
  const TensorRecord& rec = source.record(name);
  const int attempts = std::max(1, retry.max_attempts);
  int backoff_ms = std::max(1, retry.backoff_ms);
  for (int attempt = 1;; ++attempt) {
    try {
      const std::vector<std::uint8_t> bytes = source.read_bytes(name);
      bytes_read.fetch_add(bytes.size());
      const std::string expected = source.stored_checksum(name);
      if (!expected.empty()) {
        if (hash_to_hex(xxh64(bytes.data(), bytes.size())) != expected) {
          CA_THROW_AS(TransientIoError,
                      "tensor '" << name << "' in '" << rec.file
                                 << "' does not match its manifest checksum");
        }
        verified.fetch_add(1);
      }
      return decode_tensor_bytes(bytes.data(), bytes.size(), rec.dtype,
                                 rec.shape);
    } catch (const TransientIoError& e) {
      if (attempt >= attempts) {
        CA_THROW_AS(RetriesExhaustedError,
                    "tensor '" << name << "' in '" << rec.file
                               << "': transient read failure persisted "
                                  "after " << attempts
                               << " attempt(s) — " << e.what());
      }
      retried.fetch_add(1);
      CA_LOG_WARN("transient read failure for '"
                  << name << "' (attempt " << attempt << "/" << attempts
                  << "), retrying in " << backoff_ms << " ms: " << e.what());
      std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
      backoff_ms = std::min(backoff_ms * 2, std::max(1, retry.max_backoff_ms));
    }
  }
}

/// One tensor on its way through either engine: inputs filled by the read
/// stage, output bytes by the merge stage, emptied once committed. In the
/// pipelined engine `read` and `merged` hand the slot from stage to stage
/// under the pipeline mutex, and `cost` is its charge against the budget.
struct TensorSlot {
  Tensor chip_tensor;
  Tensor instruct_tensor;
  Tensor base_tensor;
  std::vector<std::uint8_t> out_bytes;
  std::string checksum;
  std::uint64_t cost = 0;
  bool read = false;
  bool merged = false;
};

/// Everything the two engines (serial and pipelined) share: the immutable
/// plan-side inputs plus the mutable commit-side state (journal, checksums,
/// counters). Commit-side members are only touched by one thread at a time
/// (the caller in serial mode, the writer thread in pipeline mode).
struct MergeRun {
  const Merger& merger;
  const TensorSource& chip;
  const TensorSource& instruct;
  const TensorSource* base;
  const MergeOptions& options;
  const StreamingMergeConfig& config;
  const std::vector<std::string>& names;

  ShardSetWriter& writer;
  fs_io::AppendFile& journal_file;
  std::map<std::string, std::string>& checksums;
  const std::set<std::string>& done;
  std::vector<std::size_t> todo{};  ///< plan indices still to merge, in order

  Timer timer{};
  std::atomic<std::uint64_t> bytes_read{0};
  std::atomic<std::uint64_t> bytes_written{0};
  std::atomic<std::size_t> checksum_verified{0};
  std::atomic<std::size_t> read_retries{0};
  std::atomic<std::uint64_t> read_us{0};
  std::atomic<std::uint64_t> merge_us{0};
  std::atomic<std::uint64_t> write_us{0};

  /// Read stage: the verified inputs of plan entry `index` into `slot`.
  void read_inputs(std::size_t index, TensorSlot& slot) {
    const Timer read_timer;
    const std::string& name = names[index];
    const auto read = [&](const TensorSource& source) {
      return read_verified(source, name, config.read_retry, bytes_read,
                           checksum_verified, read_retries);
    };
    slot.chip_tensor = read(chip);
    slot.instruct_tensor = read(instruct);
    if (base != nullptr) slot.base_tensor = read(*base);
    read_us.fetch_add(static_cast<std::uint64_t>(read_timer.seconds() * 1e6));
  }

  /// Merge stage: merges and encodes plan entry `index` from the inputs in
  /// `slot`, fills its output bytes and checksum, and drops the inputs,
  /// which are dead weight while the slot waits for its commit.
  void merge_encode(std::size_t index, TensorSlot& slot) {
    const Timer merge_timer;
    const std::string& name = names[index];
    Rng rng = merge_tensor_rng(options, index);
    const Tensor merged = merger.merge_tensor(
        name, slot.chip_tensor, slot.instruct_tensor,
        base != nullptr ? &slot.base_tensor : nullptr, options, rng);
    CA_CHECK(merged.shape() == chip.record(name).shape,
             "merger '" << merger.name() << "' changed shape of '" << name
                        << "'");
    slot.out_bytes = encode_tensor_bytes(merged, config.out_dtype);
    slot.checksum =
        hash_to_hex(xxh64(slot.out_bytes.data(), slot.out_bytes.size()));
    slot.chip_tensor = Tensor();
    slot.instruct_tensor = Tensor();
    slot.base_tensor = Tensor();
    merge_us.fetch_add(
        static_cast<std::uint64_t>(merge_timer.seconds() * 1e6));
  }

  std::uint64_t tensor_cost(const std::string& name) const {
    // An in-flight tensor costs its input storage bytes plus one fp32
    // working copy per input and the merged fp32 + encoded output. This is
    // an accounting bound (enforced deterministically), which the bench
    // then checks against measured RSS.
    const int n_inputs = 2 + (merger.requires_base() ? 1 : 0);
    const TensorRecord& rec = chip.record(name);
    const auto numel = static_cast<std::uint64_t>(rec.numel());
    std::uint64_t cost = rec.byte_size() + instruct.record(name).byte_size() +
                         (base != nullptr ? base->record(name).byte_size() : 0);
    cost += numel * 4 * static_cast<std::uint64_t>(n_inputs + 1);  // fp32
    cost += numel * dtype_size(config.out_dtype);  // encoded out
    return cost;
  }

  /// Commits one merged tensor: shard write, journal append, bookkeeping,
  /// fault-injection hook, progress/log callbacks. `journaled_this_run` is
  /// the count of commits this invocation made so far *including* this one.
  /// Called from exactly one thread at a time (see struct comment).
  void commit(const std::string& name, const std::vector<std::uint8_t>& bytes,
              const std::string& checksum, std::size_t journaled_this_run) {
    const Timer write_timer;
    writer.write_tensor(name, bytes);
    bytes_written.fetch_add(bytes.size());
    // Entry body and terminating newline are separate appends with a
    // failpoint between them, so the soak can create exactly the torn
    // trailing line a mid-append kill leaves. sync() makes the committed
    // entry durable before the tensor counts as done.
    journal_file.append("done " + checksum + ' ' + name);
    CA_FAILPOINT("journal.append");
    journal_file.append("\n");
    CA_FAILPOINT("journal.sync");
    journal_file.sync();
    checksums[name] = checksum;
    write_us.fetch_add(static_cast<std::uint64_t>(write_timer.seconds() * 1e6));

    const std::size_t done_now = done.size() + journaled_this_run;
    if (config.fail_after_tensors >= 0 &&
        journaled_this_run >=
            static_cast<std::size_t>(config.fail_after_tensors)) {
      CA_THROW("injected failure after " << config.fail_after_tensors
                                         << " tensors (test hook)");
    }
    if (config.progress) config.progress(done_now, names.size());
    if (config.log_every > 0 && done_now % config.log_every == 0) {
      const double mb =
          static_cast<double>(bytes_written.load()) / (1024.0 * 1024.0);
      const double secs = timer.seconds();
      CA_LOG_INFO("streamed " << done_now << "/" << names.size() << " tensors, "
                              << (secs > 0 ? mb / secs : 0.0) << " MB/s");
    }
  }
};

/// The escape hatch (`pipeline = false`): one tensor at a time, strictly
/// serial — read shard, merge, encode, write, journal — on the calling
/// thread. The reference the pipelined engine must match byte-for-byte, and
/// the baseline its speedup gate measures against.
void run_serial(MergeRun& run, StreamingMergeReport& report) {
  std::size_t journaled = 0;
  for (const std::size_t index : run.todo) {
    const std::string& name = run.names[index];
    report.max_inflight_bytes_observed = std::max(
        report.max_inflight_bytes_observed, run.tensor_cost(name));
    TensorSlot slot;
    run.read_inputs(index, slot);
    run.merge_encode(index, slot);
    run.commit(name, slot.out_bytes, slot.checksum, ++journaled);
  }
}

/// The three-stage pipelined engine; see the header's file comment for the
/// contract. Stages hand slots to each other through one mutex and one
/// condition variable:
///
///   * `io_threads` reader threads claim plan positions in order, admit
///     each in plan order once the in-flight byte budget and the
///     prefetch_tensors cap allow it (or nothing is in flight), and read
///     its inputs;
///   * the merge stage is one parallel_for over the plan on the merge pool;
///     index k waits for read k;
///   * one writer thread commits in plan order and releases the budget.
///
/// No deadlock: parallel_for hands out indices in ascending order and
/// admission follows plan order, so the lowest uncommitted position — the
/// writer's next — is admitted (or, with nothing else in flight, is
/// admitted next), read by the reader that claimed it, and merged by the
/// thread that took its index. The first failure anywhere is recorded, every wait
/// gives up, and it is rethrown once all stages have stopped; the journal,
/// written in plan order, stays resumable.
void run_pipelined(MergeRun& run, StreamingMergeReport& report) {
  const StreamingMergeConfig& config = run.config;
  ThreadPool& pool =
      config.pool != nullptr ? *config.pool : global_thread_pool();
  const std::size_t prefetch_cap =
      std::max<std::size_t>(1, config.prefetch_tensors);
  const std::size_t count = run.todo.size();
  std::vector<TensorSlot> slots(count);

  std::mutex mutex;
  std::condition_variable changed;
  std::size_t next_claim = 0;  // next plan position a reader takes
  std::size_t admitted = 0;    // positions [0, admitted) were charged
  std::uint64_t inflight_bytes = 0;
  std::size_t inflight_count = 0;
  bool failed = false;
  std::exception_ptr first_error;

  const auto fail = [&](std::exception_ptr error) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      if (!failed) first_error = std::move(error);
      failed = true;
    }
    changed.notify_all();
  };
  // Waits under `lock` until `ready` holds; false once the run has failed.
  const auto await = [&](std::unique_lock<std::mutex>& lock,
                         const auto& ready) {
    changed.wait(lock, [&] { return failed || ready(); });
    return !failed;
  };
  // Sets a slot's stage flag and wakes whoever waits on it.
  const auto publish = [&](bool& flag) {
    {
      std::lock_guard<std::mutex> lock(mutex);
      flag = true;
    }
    changed.notify_all();
  };

  const auto read_stage = [&] {
    try {
      while (true) {
        std::size_t k = 0;
        {
          std::unique_lock<std::mutex> lock(mutex);
          if (failed || next_claim == count) return;
          k = next_claim++;
          const std::uint64_t cost = run.tensor_cost(run.names[run.todo[k]]);
          if (!await(lock, [&] {
                return admitted == k &&
                       (inflight_count == 0 ||
                        (inflight_bytes + cost <= config.max_inflight_bytes &&
                         inflight_count < prefetch_cap));
              })) {
            return;
          }
          admitted = k + 1;
          inflight_bytes += cost;
          ++inflight_count;
          slots[k].cost = cost;
          report.max_inflight_bytes_observed =
              std::max(report.max_inflight_bytes_observed, inflight_bytes);
        }
        changed.notify_all();  // the reader holding position k + 1
        run.read_inputs(run.todo[k], slots[k]);
        publish(slots[k].read);
      }
    } catch (...) {
      fail(std::current_exception());
    }
  };

  const auto write_stage = [&] {
    try {
      for (std::size_t k = 0; k < count; ++k) {
        {
          std::unique_lock<std::mutex> lock(mutex);
          if (!await(lock, [&] { return slots[k].merged; })) return;
        }
        const std::size_t index = run.todo[k];
        run.commit(run.names[index], slots[k].out_bytes, slots[k].checksum,
                   k + 1);
        {
          std::lock_guard<std::mutex> lock(mutex);
          inflight_bytes -= slots[k].cost;
          --inflight_count;
        }
        changed.notify_all();
        slots[k] = TensorSlot();
      }
    } catch (...) {
      fail(std::current_exception());
    }
  };

  {
    // Joined on leaving this scope, after fail() on every error path has
    // released any stage still waiting.
    std::vector<std::jthread> stages;
    try {
      for (std::size_t i = 0; i < std::max<std::size_t>(1, config.io_threads);
           ++i) {
        stages.emplace_back(read_stage);
      }
      stages.emplace_back(write_stage);
      pool.parallel_for(count, [&](std::size_t k) {
        {
          std::unique_lock<std::mutex> lock(mutex);
          if (!await(lock, [&] { return slots[k].read; })) return;
        }
        try {
          run.merge_encode(run.todo[k], slots[k]);
        } catch (...) {
          fail(std::current_exception());
          return;
        }
        publish(slots[k].merged);
      });
    } catch (...) {
      fail(std::current_exception());
    }
  }
  if (first_error) std::rethrow_exception(first_error);  // journal resumable
}

}  // namespace

StreamingMergeReport merge_streaming(const Merger& merger,
                                     const TensorSource& chip,
                                     const TensorSource& instruct,
                                     const TensorSource* base,
                                     const MergeOptions& options,
                                     const StreamingMergeConfig& config,
                                     const std::string& out_dir) {
  check_sources_mergeable(chip, instruct);
  if (merger.requires_base()) {
    CA_CHECK(base != nullptr,
             "merge method '" << merger.name()
                 << "' requires a base checkpoint");
    check_sources_mergeable(chip, *base);
  }
  validate_merge_options(options);

  const std::vector<std::string>& names = chip.names();

  // Output metadata mirrors what merge_checkpoints() + Checkpoint::save()
  // produce, so the two paths are byte-identical: the merged config keeps
  // the chip architecture with "+<method>" appended to its name.
  std::map<std::string, std::string> metadata;
  if (chip.metadata().count("chipalign.config") > 0) {
    ModelConfig out_config = config_from_metadata(chip.metadata(),
                                                  "chip source");
    out_config.name = out_config.name + "+" + merger.name();
    metadata = checkpoint_metadata(out_config);
  } else {
    metadata["format"] = "chipalign-checkpoint-v1";
  }

  std::vector<std::pair<std::string, Shape>> entries;
  entries.reserve(names.size());
  for (const std::string& name : names) {
    entries.emplace_back(name, chip.record(name).shape);
  }
  ShardPlan plan = plan_shards(entries, config.out_dtype,
                               config.shard_size_bytes);

  const std::uint64_t fingerprint =
      plan_fingerprint(merger, options, config, names, chip);

  namespace fs = std::filesystem;
  fs::create_directories(out_dir);
  const std::string journal_path =
      out_dir + "/" + std::string(kJournalFileName);

  JournalState journal;
  if (config.resume && fs::exists(journal_path)) {
    journal = read_journal(journal_path);
    CA_CHECK(journal.fingerprint == fingerprint,
             "journal '" << journal_path
                         << "' belongs to a different merge plan; delete it or "
                            "rerun without resume");
  }

  ShardSetWriter writer(out_dir, std::move(plan), metadata, config.resume);

  // A journaled tensor counts as done only if its shard file survived
  // validation; otherwise its bytes are gone and it must be remerged.
  std::set<std::string> done;
  for (const auto& [name, checksum] : journal.done) {
    const auto it = writer.plan().shard_of.find(name);
    if (it == writer.plan().shard_of.end()) continue;
    if (!writer.shard_kept(it->second)) continue;
    done.insert(name);
    writer.mark_written(name);
  }

  // (Re)write the journal: fingerprint line plus the entries still valid.
  // One fsync covers the whole rewrite before any new work is journaled.
  fs_io::AppendFile journal_file(journal_path);
  journal_file.append(std::string(kJournalMagic) + ' ' +
                      hash_to_hex(fingerprint) + '\n');
  std::map<std::string, std::string> checksums;
  for (const std::string& name : done) {
    const std::string& checksum = journal.done.at(name);
    journal_file.append("done " + checksum + ' ' + name + '\n');
    checksums[name] = checksum;
  }
  journal_file.sync();

  StreamingMergeReport report;
  report.tensor_count = names.size();
  report.resumed_count = done.size();
  report.shard_count = writer.plan().shards.size();
  report.pipelined = config.pipeline;

  MergeRun run{merger,    chip,   instruct, base,         options, config,
               names,     writer, journal_file, checksums, done};
  run.todo.reserve(names.size() - done.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    if (done.count(names[i]) == 0) run.todo.push_back(i);
  }

  if (config.pipeline) {
    run_pipelined(run, report);
  } else {
    run_serial(run, report);
  }

  report.bytes_read = run.bytes_read.load();
  report.bytes_written = run.bytes_written.load();
  report.source_checksums_verified = run.checksum_verified.load();
  report.read_retries = run.read_retries.load();
  report.read_seconds = static_cast<double>(run.read_us.load()) * 1e-6;
  report.merge_seconds = static_cast<double>(run.merge_us.load()) * 1e-6;
  report.write_seconds = static_cast<double>(run.write_us.load()) * 1e-6;
  report.seconds = run.timer.seconds();
  report.index_path = writer.finish(checksums);

  journal_file.close();
  std::error_code ec;
  fs::remove(journal_path, ec);  // completed merges need no journal

  CA_LOG_DEBUG("streaming merge (" << (config.pipeline ? "pipelined" : "serial")
                                   << "): " << names.size() << " tensors ("
                                   << report.resumed_count << " resumed) into "
                                   << report.shard_count << " shards in "
                                   << report.seconds * 1e3 << " ms");
  return report;
}

}  // namespace chipalign
