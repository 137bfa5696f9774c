#include "netllm/resilience.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "core/fault.hpp"
#include "core/metrics.hpp"

namespace netllm::adapt {

TrainGuard::TrainGuard(std::vector<tensor::Tensor> params, int snapshot_every)
    : params_(std::move(params)), snapshot_every_(snapshot_every < 1 ? 1 : snapshot_every) {
  capture();
}

void TrainGuard::capture() {
  good_.clear();
  good_.reserve(params_.size());
  for (const auto& p : params_) {
    auto d = p.data();
    good_.emplace_back(d.begin(), d.end());
  }
  steps_since_snapshot_ = 0;
}

void TrainGuard::restore() {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto dst = params_[i].mutable_data();
    std::copy(good_[i].begin(), good_[i].end(), dst.begin());
  }
  ++restores_;
  static auto& restores_metric = core::metrics::counter("adapt.restores");
  restores_metric.add();
}

bool TrainGuard::params_finite() const {
  for (const auto& p : params_) {
    for (float v : p.data()) {
      if (!std::isfinite(v)) return false;
    }
  }
  return true;
}

bool TrainGuard::loss_ok(float loss_value) {
  if (std::isfinite(loss_value)) return true;
  ++skipped_;
  static auto& skipped_metric = core::metrics::counter("adapt.skipped_steps");
  skipped_metric.add();
  return false;
}

bool TrainGuard::grads_ok() {
  for (const auto& p : params_) {
    for (float g : p.grad()) {
      if (!std::isfinite(g)) {
        ++skipped_;
        static auto& skipped_metric = core::metrics::counter("adapt.skipped_steps");
        skipped_metric.add();
        return false;
      }
    }
  }
  return true;
}

namespace {

template <typename T>
void append_pod(std::string& buf, const T& v) {
  buf.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T take_pod(std::string_view blob, std::size_t& pos) {
  if (sizeof(T) > blob.size() - pos) {
    throw std::runtime_error("TrainGuard::load_state: truncated state blob");
  }
  T v{};
  std::memcpy(&v, blob.data() + pos, sizeof(T));
  pos += sizeof(T);
  return v;
}

}  // namespace

void TrainGuard::save_state(std::string& out) const {
  out.append("tgd1", 4);
  append_pod(out, static_cast<std::int32_t>(steps_since_snapshot_));
  append_pod(out, static_cast<std::int32_t>(skipped_));
  append_pod(out, static_cast<std::int32_t>(restores_));
  append_pod(out, static_cast<std::uint64_t>(good_.size()));
  for (const auto& g : good_) {
    append_pod(out, static_cast<std::uint64_t>(g.size()));
    out.append(reinterpret_cast<const char*>(g.data()), g.size() * sizeof(float));
  }
}

void TrainGuard::load_state(std::string_view blob) {
  std::size_t pos = 0;
  char tag[4];
  if (blob.size() < sizeof(tag) || std::memcmp(blob.data(), "tgd1", 4) != 0) {
    throw std::runtime_error("TrainGuard::load_state: unrecognised state blob");
  }
  pos += sizeof(tag);
  const auto since = take_pod<std::int32_t>(blob, pos);
  const auto skipped = take_pod<std::int32_t>(blob, pos);
  const auto restores = take_pod<std::int32_t>(blob, pos);
  const auto count = take_pod<std::uint64_t>(blob, pos);
  if (count != params_.size()) {
    throw std::runtime_error("TrainGuard::load_state: state has " + std::to_string(count) +
                             " parameters, guard has " + std::to_string(params_.size()));
  }
  std::vector<std::vector<float>> good(params_.size());
  for (std::size_t i = 0; i < params_.size(); ++i) {
    const auto n = take_pod<std::uint64_t>(blob, pos);
    if (n != static_cast<std::uint64_t>(params_[i].numel())) {
      throw std::runtime_error("TrainGuard::load_state: parameter " + std::to_string(i) +
                               " size mismatch");
    }
    const auto bytes = static_cast<std::size_t>(n) * sizeof(float);
    if (bytes > blob.size() - pos) {
      throw std::runtime_error("TrainGuard::load_state: truncated state blob");
    }
    good[i].resize(static_cast<std::size_t>(n));
    std::memcpy(good[i].data(), blob.data() + pos, bytes);
    pos += bytes;
  }
  if (pos != blob.size()) {
    throw std::runtime_error("TrainGuard::load_state: trailing bytes in state blob");
  }
  good_ = std::move(good);
  steps_since_snapshot_ = since;
  skipped_ = skipped;
  restores_ = restores;
}

bool TrainGuard::after_step() {
  if (!params_.empty()) {
    core::fault::corrupt("adapter.params", params_.front().mutable_data());
  }
  if (!params_finite()) {
    restore();
    return true;
  }
  if (++steps_since_snapshot_ >= snapshot_every_) capture();
  return false;
}

}  // namespace netllm::adapt
