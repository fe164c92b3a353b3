#include "core/model_zoo.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "data/corpus.hpp"
#include "util/logging.hpp"
#include "util/timer.hpp"

namespace chipalign {

ModelZoo::ModelZoo(std::string cache_dir) : cache_dir_(std::move(cache_dir)) {
  if (cache_dir_.empty()) {
    const char* env = std::getenv("CHIPALIGN_CACHE_DIR");
    cache_dir_ = env != nullptr ? env : ".chipalign_cache";
  }
  std::filesystem::create_directories(cache_dir_);
}

namespace {
/// Bump when the data builders or training pipeline change behaviour, so
/// stale cached checkpoints are not reused.
constexpr std::uint64_t kRecipeVersion = 5;

std::uint64_t fnv1a_mix(std::uint64_t hash, std::uint64_t value) {
  for (int byte = 0; byte < 8; ++byte) {
    hash ^= (value >> (8 * byte)) & 0xFF;
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

std::uint64_t train_fingerprint(std::uint64_t hash, const TrainConfig& config) {
  hash = fnv1a_mix(hash, static_cast<std::uint64_t>(config.steps));
  hash = fnv1a_mix(hash, static_cast<std::uint64_t>(config.batch_size));
  hash = fnv1a_mix(hash, static_cast<std::uint64_t>(config.peak_lr * 1e9));
  hash = fnv1a_mix(hash, config.seed);
  return hash;
}

/// Fingerprint of everything that determines the weights of `role`. The
/// fingerprint is hierarchical — a role depends on its own recipe plus the
/// recipes of the roles it builds on — so e.g. tuning the DAFT budget
/// invalidates only the chip checkpoint, not the cached base/instruct runs.
std::uint64_t role_fingerprint(const BackboneSpec& spec,
                               const std::string& role) {
  std::uint64_t hash = 0xCBF29CE484222325ULL;
  hash = fnv1a_mix(hash, kRecipeVersion);
  hash = fnv1a_mix(hash, spec.init_seed);
  hash = fnv1a_mix(hash, static_cast<std::uint64_t>(spec.config.d_model));
  hash = fnv1a_mix(hash, static_cast<std::uint64_t>(spec.config.n_layers));
  hash = fnv1a_mix(hash, static_cast<std::uint64_t>(spec.config.n_heads));
  hash = fnv1a_mix(hash, static_cast<std::uint64_t>(spec.config.n_kv_heads));
  hash = fnv1a_mix(hash, static_cast<std::uint64_t>(spec.config.d_ff));
  hash = fnv1a_mix(hash, static_cast<std::uint64_t>(spec.config.max_seq_len));
  hash = train_fingerprint(hash, spec.pretrain);  // every role builds on base
  const bool chipnemo =
      spec.chip_recipe == BackboneSpec::ChipRecipe::kChipNemoFromBase;
  if (role == "instruct" || (role == "chip" && !chipnemo)) {
    hash = train_fingerprint(hash, spec.instruct_ft);
  }
  if (role == "chip") {
    hash = train_fingerprint(hash, spec.daft);
    hash = fnv1a_mix(hash, chipnemo ? 2 : 1);
    hash = fnv1a_mix(hash,
                     static_cast<std::uint64_t>(spec.chip_instruct_frac * 1e6));
    for (FactDomain domain : spec.chip_domains) {
      hash = fnv1a_mix(hash, static_cast<std::uint64_t>(domain) + 17);
    }
  }
  return hash;
}
}  // namespace

std::string ModelZoo::cache_path(const BackboneSpec& spec,
                                 const std::string& role) const {
  char hash_hex[20];
  std::snprintf(hash_hex, sizeof(hash_hex), "%016llx",
                static_cast<unsigned long long>(role_fingerprint(spec, role)));
  return cache_dir_ + "/" + spec.name + "." + role + "." + hash_hex +
         ".safetensors";
}

template <typename Builder>
Checkpoint ModelZoo::get_or_build(const BackboneSpec& spec,
                                  const std::string& role, Builder&& builder) {
  const std::string path = cache_path(spec, role);
  if (std::filesystem::exists(path)) {
    CA_LOG_DEBUG("loading cached " << spec.name << "/" << role);
    return Checkpoint::load(path);
  }
  CA_LOG_INFO("building " << spec.name << "/" << role
                          << " (cached at " << path << ")");
  Timer timer;
  Checkpoint checkpoint = builder();
  CA_LOG_INFO("built " << spec.name << "/" << role << " in "
                       << timer.seconds() << " s");
  checkpoint.save(path);
  return checkpoint;
}

Checkpoint ModelZoo::base(const BackboneSpec& spec) {
  return get_or_build(spec, "base", [&] { return build_base(spec); });
}

Checkpoint ModelZoo::instruct(const BackboneSpec& spec) {
  return get_or_build(spec, "instruct", [&] { return build_instruct(spec); });
}

Checkpoint ModelZoo::chip(const BackboneSpec& spec) {
  return get_or_build(spec, "chip", [&] { return build_chip(spec); });
}

Checkpoint ModelZoo::build_base(const BackboneSpec& spec) {
  Rng rng(spec.init_seed);
  TrainableModel model(spec.config, rng);

  PretrainDataConfig data_config;
  data_config.seed = spec.init_seed * 7919 + 1;
  data_config.max_len = spec.config.max_seq_len;
  const std::vector<TrainExample> dataset =
      build_pretrain_dataset(facts_, data_config);

  const TrainStats stats = train_full(model, dataset, spec.pretrain);
  CA_LOG_INFO(spec.name << " pretrain loss " << stats.first_loss << " -> "
                        << stats.final_loss);
  Checkpoint out = model.to_checkpoint();
  out.config().name = spec.name + "-base";
  return out;
}

Checkpoint ModelZoo::build_instruct(const BackboneSpec& spec) {
  TrainableModel model(base(spec));

  InstructDataConfig data_config;
  data_config.seed = spec.init_seed * 7919 + 2;
  data_config.max_len = spec.config.max_seq_len;
  const std::vector<TrainExample> dataset = build_instruct_dataset(data_config);

  const TrainStats stats = train_full(model, dataset, spec.instruct_ft);
  CA_LOG_INFO(spec.name << " instruct loss " << stats.first_loss << " -> "
                        << stats.final_loss);
  Checkpoint out = model.to_checkpoint();
  out.config().name = spec.name + "-instruct";
  return out;
}

Checkpoint ModelZoo::build_chip(const BackboneSpec& spec) {
  ChipDataConfig data_config;
  data_config.seed = spec.init_seed * 7919 + 3;
  data_config.max_len = spec.config.max_seq_len;
  data_config.domains = spec.chip_domains;

  if (spec.chip_recipe == BackboneSpec::ChipRecipe::kChipNemoFromBase) {
    // ChipNeMo: full finetune from the *base* model, all requested domains,
    // with a small instruction admixture (OASST analogue).
    data_config.instruct_frac = spec.chip_instruct_frac;
    data_config.repeats_per_fact = 8;
    TrainableModel model(base(spec));
    std::vector<TrainExample> dataset =
        build_chip_daft_dataset(facts_, data_config);
    if (spec.chip_instruct_frac > 0.0) {
      // Blend in genuine instruction examples so the chip model retains
      // *some* alignment, as ChipNeMo did via OASST + SteerLM.
      InstructDataConfig instruct_config;
      instruct_config.seed = spec.init_seed * 7919 + 4;
      instruct_config.max_len = spec.config.max_seq_len;
      instruct_config.count = static_cast<int>(
          static_cast<double>(dataset.size()) * spec.chip_instruct_frac);
      if (instruct_config.count > 0) {
        for (TrainExample& example :
             build_instruct_dataset(instruct_config)) {
          dataset.push_back(std::move(example));
        }
      }
    }
    const TrainStats stats = train_full(model, dataset, spec.daft);
    CA_LOG_INFO(spec.name << " chipnemo loss " << stats.first_loss << " -> "
                          << stats.final_loss);
    Checkpoint out = model.to_checkpoint();
    out.config().name = spec.name + "-chipnemo";
    return out;
  }

  // Figure 4(a): LoRA DAFT from the instruct model, then fold the adapters.
  TrainableModel model(instruct(spec));
  LoraConfig lora_config;
  lora_config.rank = 8;
  lora_config.alpha = 16.0;
  lora_config.seed = spec.init_seed * 7919 + 5;
  lora_config.target_suffixes = {
      "self_attn.q_proj.weight", "self_attn.k_proj.weight",
      "self_attn.v_proj.weight", "self_attn.o_proj.weight",
      "mlp.gate_proj.weight",    "mlp.up_proj.weight",
      "mlp.down_proj.weight",
  };
  LoraAdapterSet adapters(model, lora_config);

  const std::vector<TrainExample> dataset =
      build_chip_daft_dataset(facts_, data_config);
  const TrainStats stats = train_lora(model, adapters, dataset, spec.daft);
  CA_LOG_INFO(spec.name << " daft loss " << stats.first_loss << " -> "
                        << stats.final_loss);
  adapters.fold();
  Checkpoint out = model.to_checkpoint();
  out.config().name = spec.name + "-eda";
  return out;
}

}  // namespace chipalign
