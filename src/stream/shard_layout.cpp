#include "stream/shard_layout.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>

#include "io/json.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/fs_io.hpp"

namespace chipalign {

std::string shard_file_name(std::size_t index, std::size_t count) {
  CA_CHECK(index >= 1 && index <= count,
           "shard index " << index << " out of range 1.." << count);
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "model-%05zu-of-%05zu.safetensors",
                index, count);
  return buffer;
}

std::vector<std::string> ShardIndex::shard_files() const {
  std::set<std::string> files;
  for (const auto& [name, file] : weight_map) files.insert(file);
  return {files.begin(), files.end()};
}

std::string ShardIndex::to_json_text() const {
  Json root = Json::object();
  Json meta = Json::object();
  meta.set("total_size", Json(static_cast<std::int64_t>(total_size)));
  for (const auto& [key, value] : metadata) meta.set(key, Json(value));
  root.set("metadata", std::move(meta));
  Json weights = Json::object();
  for (const auto& [name, file] : weight_map) weights.set(name, Json(file));
  root.set("weight_map", std::move(weights));
  if (!checksums.empty()) {
    Json sums = Json::object();
    for (const auto& [name, hex] : checksums) sums.set(name, Json(hex));
    root.set("checksums", std::move(sums));
  }
  return root.dump();
}

std::string ShardIndex::save(const std::string& dir) const {
  // The manifest is what marks a sharded checkpoint complete, so it must
  // never exist in a torn state: durable temp-write + rename, not an
  // in-place overwrite.
  const std::string path = dir + "/" + kShardIndexFileName;
  CA_FAILPOINT("index.save");
  fs_io::atomic_write_file(path, to_json_text());
  return path;
}

ShardIndex ShardIndex::load(const std::string& index_path) {
  std::ifstream file(index_path, std::ios::binary | std::ios::ate);
  CA_CHECK(file.good(), "cannot open shard index '" << index_path << "'");
  // One sized read, like read_safetensors_header: the manifest is parsed
  // whole, so a failed size query or a short read is a damaged file.
  const std::streamoff size = file.tellg();
  std::string text(size > 0 ? static_cast<std::size_t>(size) : 0, '\0');
  file.seekg(0, std::ios::beg);
  file.read(text.data(), static_cast<std::streamsize>(text.size()));
  Json root;
  try {
    CA_CHECK(size >= 0 && file.gcount() == size, "short read");
    root = Json::parse(text);
  } catch (const Error& e) {
    // A truncated or garbled manifest usually means the writing process
    // died mid-save (pre-durable-write tooling) — say so, with the path.
    CA_THROW("shard index '" << index_path
                             << "' is truncated or corrupt: " << e.what());
  }
  CA_CHECK(root.is_object(), "shard index is not a JSON object");
  CA_CHECK(root.contains("weight_map"),
           "shard index '" << index_path << "' lacks weight_map");

  ShardIndex out;
  for (const auto& [name, file_name] : root.at("weight_map").members()) {
    out.weight_map[name] = file_name.as_string();
  }
  if (root.contains("metadata")) {
    for (const auto& [key, value] : root.at("metadata").members()) {
      if (key == "total_size") {
        out.total_size = static_cast<std::uint64_t>(value.as_int());
      } else {
        out.metadata[key] = value.as_string();
      }
    }
  }
  if (root.contains("checksums")) {
    for (const auto& [name, hex] : root.at("checksums").members()) {
      out.checksums[name] = hex.as_string();
    }
  }
  return out;
}

ShardPlan plan_shards(const std::vector<std::pair<std::string, Shape>>& entries,
                      DType storage, std::uint64_t shard_size_bytes) {
  // First pass: greedy partition into groups of at most shard_size_bytes.
  std::vector<std::vector<std::size_t>> groups;
  std::vector<std::uint64_t> sizes(entries.size());
  std::uint64_t group_bytes = 0;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const auto& [name, shape] = entries[i];
    CA_CHECK(i == 0 || entries[i - 1].first < name,
             "plan_shards input must be name-sorted and duplicate-free; saw '"
                 << entries[i - 1].first << "' before '" << name << "'");
    sizes[i] =
        static_cast<std::uint64_t>(shape_numel(shape)) * dtype_size(storage);
    const bool roll = !groups.empty() && !groups.back().empty() &&
                      shard_size_bytes > 0 &&
                      group_bytes + sizes[i] > shard_size_bytes;
    if (groups.empty() || roll) {
      groups.emplace_back();
      group_bytes = 0;
    }
    groups.back().push_back(i);
    group_bytes += sizes[i];
  }
  // Empty checkpoint: still emit one (empty) shard.
  if (groups.empty()) groups.emplace_back();

  // Second pass: materialize the plan now that the shard count is known.
  ShardPlan plan;
  plan.shards.resize(groups.size());
  for (std::size_t s = 0; s < groups.size(); ++s) {
    ShardPlanShard& shard = plan.shards[s];
    shard.filename = shard_file_name(s + 1, groups.size());
    std::uint64_t offset = 0;
    for (std::size_t i : groups[s]) {
      const auto& [name, shape] = entries[i];
      SafetensorsTensorInfo info;
      info.dtype = storage;
      info.shape = shape;
      info.begin = offset;
      info.end = offset + sizes[i];
      offset = info.end;
      shard.tensors.emplace(name, std::move(info));
      plan.shard_of.emplace(name, s);
    }
    shard.data_size = offset;
    plan.total_size += offset;
  }
  return plan;
}

}  // namespace chipalign
