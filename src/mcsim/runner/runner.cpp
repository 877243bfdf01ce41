#include "mcsim/runner/runner.hpp"

#include <thread>

namespace mcsim::runner {

int defaultJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::uint64_t deriveSeed(std::uint64_t baseSeed,
                         std::uint64_t scenarioIndex) {
  // splitmix64 over the (seed, index) pair; the +1 keeps index 0 from
  // collapsing into the raw base seed.
  std::uint64_t z = baseSeed + 0x9e3779b97f4a7c15ull * (scenarioIndex + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

}  // namespace mcsim::runner
