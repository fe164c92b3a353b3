#include "common.hpp"

#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "text/tokenizer.hpp"

namespace perfbench {

Json read_json(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::stringstream text;
  text << in.rdbuf();
  return Json::parse(text.str());
}

void write_json(const std::string& path, const Json& value) {
  std::ofstream out(path);
  out << value.dump() << "\n";
  if (!out) throw std::runtime_error("cannot write " + path);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (const double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

chipalign::ModelConfig model_config(const Json& config) {
  const Json& m = config.at("model");
  chipalign::ModelConfig out;
  out.name = "perfbench";
  out.vocab_size = chipalign::tokenizer().vocab_size();
  out.d_model = m.at("d_model").as_int();
  out.n_layers = m.at("n_layers").as_int();
  out.n_heads = m.at("n_heads").as_int();
  out.n_kv_heads = m.at("n_kv_heads").as_int();
  out.d_ff = m.at("d_ff").as_int();
  out.max_seq_len = m.at("max_seq_len").as_int();
  out.validate();
  return out;
}

std::string filesystem_name(const std::string& path) {
  struct statfs info {};
  if (statfs(path.c_str(), &info) != 0) return "unknown";
  switch (static_cast<unsigned long>(info.f_type)) {
    case 0xEF53UL: return "ext4";
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlay";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    case 0x6969UL: return "nfs";
    case 0x65735546UL: return "fuse";
    default: {
      std::ostringstream hex;
      hex << "0x" << std::hex << static_cast<unsigned long>(info.f_type);
      return hex.str();
    }
  }
}

}  // namespace perfbench
