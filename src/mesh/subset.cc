#include "mesh/subset.h"

#include <algorithm>

#include "util/hash.h"

namespace meshnet::mesh {

std::map<std::string, std::vector<std::size_t>> compute_endpoint_subsets(
    const std::string& cluster_name,
    const std::vector<cluster::Endpoint>& endpoints,
    const std::vector<std::string>& subscribers, int subset_size) {
  std::map<std::string, std::vector<std::size_t>> subsets;
  const std::size_t n = endpoints.size();
  if (subscribers.empty()) return subsets;
  if (subset_size <= 0 || static_cast<std::size_t>(subset_size) >= n) {
    std::vector<std::size_t> all(n);
    for (std::size_t i = 0; i < n; ++i) all[i] = i;
    for (const std::string& s : subscribers) subsets[s] = all;
    return subsets;
  }
  const auto k = static_cast<std::size_t>(subset_size);

  std::vector<std::size_t> cover_count(n, 0);
  for (const std::string& s : subscribers) {
    const std::size_t start = util::fnv1a(s + "|" + cluster_name) % n;
    std::vector<std::size_t>& subset = subsets[s];
    subset.reserve(k);
    for (std::size_t i = 0; i < k; ++i) {
      const std::size_t index = (start + i) % n;
      subset.push_back(index);
      ++cover_count[index];
    }
    std::sort(subset.begin(), subset.end());
  }

  // Coverage repair: an endpoint no aperture landed on goes to the
  // subscriber with the smallest subset. std::map iterates subscribers in
  // lexicographic order, which is the deterministic tie-break.
  for (std::size_t index = 0; index < n; ++index) {
    if (cover_count[index] > 0) continue;
    auto smallest = subsets.begin();
    for (auto it = std::next(subsets.begin()); it != subsets.end(); ++it) {
      if (it->second.size() < smallest->second.size()) smallest = it;
    }
    smallest->second.insert(
        std::lower_bound(smallest->second.begin(), smallest->second.end(),
                         index),
        index);
    ++cover_count[index];
  }
  return subsets;
}

}  // namespace meshnet::mesh
