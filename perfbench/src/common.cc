#include "common.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {

double Samples::Percentile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  size_t rank = static_cast<size_t>(std::ceil(q * double(sorted.size())));
  rank = std::min(std::max<size_t>(rank, 1), sorted.size()) - 1;
  std::nth_element(sorted.begin(), sorted.begin() + rank, sorted.end());
  return sorted[rank];
}

double Samples::Mean() const {
  if (values_.empty()) return 0;
  return std::accumulate(values_.begin(), values_.end(), 0.0) / double(values_.size());
}

void ClientTally::Merge(const ClientTally& other) {
  read_us.Merge(other.read_us);
  commit_us.Merge(other.commit_us);
  global_us.Merge(other.global_us);
  witness_us.Merge(other.witness_us);
  attempted += other.attempted;
  completed += other.completed;
  errors += other.errors;
  wrong += other.wrong;
  no_engine += other.no_engine;
  node_limit += other.node_limit;
  for (const std::string& f : other.first_failures) {
    if (first_failures.size() < 5) first_failures.push_back(f);
  }
}

void ClientTally::RecordError(const bagc::Status& status) {
  ++errors;
  const std::string& message = status.message();
  if (message.find("no sealed engine") != std::string::npos) ++no_engine;
  if (message.find("search node limit") != std::string::npos) ++node_limit;
  if (first_failures.size() < 5) first_failures.push_back(status.ToString());
}

void ClientTally::RecordWrong(const std::string& what) {
  ++wrong;
  if (first_failures.size() < 5) first_failures.push_back("wrong answer: " + what);
}

}  // namespace perfbench
