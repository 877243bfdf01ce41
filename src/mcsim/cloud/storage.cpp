#include "mcsim/cloud/storage.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "mcsim/obs/sink.hpp"

namespace mcsim::cloud {

StorageService::StorageService(sim::Simulator& sim, const StorageConfig& config)
    : sim_(sim), capacity_(Bytes(config.capacityBytes)) {
  if (config.capacityBytes <= 0.0)
    throw std::invalid_argument("StorageService: capacity must be positive");
}

void StorageService::reserve(std::size_t fileKeys, std::size_t useKeys) {
  if (fileBytes_.size() < fileKeys) fileBytes_.resize(fileKeys, kAbsent);
  if (useBytes_.size() < useKeys) useBytes_.resize(useKeys, kAbsent);
  curve_.reserve(2 * (fileKeys + useKeys));
}

double StorageService::residentSize(std::uint64_t key) const {
  const bool file = key < kUseKeyBase;
  const std::vector<double>& table = file ? fileBytes_ : useBytes_;
  const std::uint64_t i = file ? key : key - kUseKeyBase;
  return i < table.size() ? table[i] : kAbsent;
}

double& StorageService::entry(std::uint64_t key) {
  const bool file = key < kUseKeyBase;
  std::vector<double>& table = file ? fileBytes_ : useBytes_;
  const std::uint64_t i = file ? key : key - kUseKeyBase;
  if (i >= table.size()) table.resize(i + 1, kAbsent);
  return table[i];
}

void StorageService::put(std::uint64_t key, Bytes size) {
  if (size.value() < 0.0)
    throw std::invalid_argument("StorageService::put: negative size");
  double& resident = entry(key);
  if (resident != kAbsent)
    throw std::logic_error("StorageService::put: key " + std::to_string(key) +
                           " already resident");
  if (residentBytes_ + size.value() > capacity_.value())
    throw std::runtime_error("StorageService::put: capacity exceeded");
  resident = size.value();
  ++objects_;
  residentBytes_ += size.value();
  curve_.add(sim_.now(), size);
  if (observer_ && observer_->accepts(obs::EventKind::StorageFilePut))
    observer_->onEvent(obs::Event{
        sim_.now(),
        obs::StorageFilePut{key, size.value(), residentBytes_, objects_}});
}

void StorageService::erase(std::uint64_t key) {
  const double bytes = residentSize(key);
  if (bytes == kAbsent)
    throw std::logic_error("StorageService::erase: key " +
                           std::to_string(key) + " not resident");
  residentBytes_ -= bytes;
  curve_.remove(sim_.now(), Bytes(bytes));
  entry(key) = kAbsent;
  --objects_;
  if (observer_ && observer_->accepts(obs::EventKind::StorageFileErased))
    observer_->onEvent(obs::Event{
        sim_.now(),
        obs::StorageFileErased{key, bytes, residentBytes_, objects_}});
}

bool StorageService::contains(std::uint64_t key) const {
  return residentSize(key) != kAbsent;
}

Bytes StorageService::sizeOf(std::uint64_t key) const {
  const double bytes = residentSize(key);
  if (bytes == kAbsent)
    throw std::logic_error("StorageService::sizeOf: key " +
                           std::to_string(key) + " not resident");
  return Bytes(bytes);
}

void StorageService::setOutages(
    std::vector<std::pair<double, double>> windows) {
  for (std::size_t i = 0; i < windows.size(); ++i) {
    const auto& [start, end] = windows[i];
    if (start < 0.0 || end < start)
      throw std::invalid_argument("StorageService::setOutages: bad window");
    if (i > 0 && start < windows[i - 1].second)
      throw std::invalid_argument(
          "StorageService::setOutages: windows must be sorted and disjoint");
  }
  outages_ = std::move(windows);
}

double StorageService::availableFrom(double t) const {
  // First window with start > t; only its predecessor can cover t.
  const auto it = std::upper_bound(
      outages_.begin(), outages_.end(), t,
      [](double v, const std::pair<double, double>& w) { return v < w.first; });
  if (it == outages_.begin()) return t;
  const auto& prev = *(it - 1);
  return t < prev.second ? prev.second : t;
}

double StorageService::byteSecondsUsed() const {
  return curve_.integralByteSeconds(sim_.now());
}

double StorageService::gbHoursUsed() const {
  return curve_.integralGBHours(sim_.now());
}

}  // namespace mcsim::cloud
