#include "defense/fldetector.h"

#include <algorithm>
#include <cmath>

#include "cluster/kmeans.h"
#include "stats/vec_ops.h"
#include "util/check.h"

namespace defense {

FlDetector::FlDetector(FlDetectorOptions options) : options_(options) {
  AF_CHECK_GT(options_.lbfgs_window, 0u);
  AF_CHECK_GT(options_.score_window, 0u);
}

void FlDetector::Reset() {
  pairs_.clear();
  global_snapshots_.clear();
  prev_global_.clear();
  prev_mean_update_.clear();
  has_prev_ = false;
  clients_.clear();
}

void FlDetector::SaveState(util::serial::Writer& w) const {
  w.U64(pairs_.size());
  for (const auto& [s, y] : pairs_) {
    w.FloatVec(s);
    w.FloatVec(y);
  }
  std::vector<std::size_t> snapshot_rounds;
  snapshot_rounds.reserve(global_snapshots_.size());
  for (const auto& [round, model] : global_snapshots_) {
    snapshot_rounds.push_back(round);
  }
  std::sort(snapshot_rounds.begin(), snapshot_rounds.end());
  w.U64(snapshot_rounds.size());
  for (std::size_t round : snapshot_rounds) {
    w.U64(round);
    w.FloatVec(global_snapshots_.at(round));
  }
  w.FloatVec(prev_global_);
  w.FloatVec(prev_mean_update_);
  w.U8(has_prev_ ? 1 : 0);
  std::vector<int> client_ids;
  client_ids.reserve(clients_.size());
  for (const auto& [id, history] : clients_) {
    client_ids.push_back(id);
  }
  std::sort(client_ids.begin(), client_ids.end());
  w.U64(client_ids.size());
  for (int id : client_ids) {
    const ClientHistory& history = clients_.at(id);
    w.I64(id);
    w.FloatVec(history.last_update);
    w.U64(history.last_base_round);
    w.U64(history.scores.size());
    for (double score : history.scores) {
      w.F64(score);
    }
  }
}

void FlDetector::LoadState(util::serial::Reader& r) {
  Reset();
  const std::uint64_t num_pairs = r.U64();
  for (std::uint64_t i = 0; i < num_pairs; ++i) {
    auto s = r.FloatVec();
    auto y = r.FloatVec();
    pairs_.emplace_back(std::move(s), std::move(y));
  }
  const std::uint64_t num_snapshots = r.U64();
  for (std::uint64_t i = 0; i < num_snapshots; ++i) {
    const std::size_t round = r.U64();
    global_snapshots_[round] = r.FloatVec();
  }
  prev_global_ = r.FloatVec();
  prev_mean_update_ = r.FloatVec();
  has_prev_ = r.U8() != 0;
  const std::uint64_t num_clients = r.U64();
  for (std::uint64_t i = 0; i < num_clients; ++i) {
    const int id = static_cast<int>(r.I64());
    ClientHistory& history = clients_[id];
    history.last_update = r.FloatVec();
    history.last_base_round = r.U64();
    const std::uint64_t num_scores = r.U64();
    for (std::uint64_t j = 0; j < num_scores; ++j) {
      history.scores.push_back(r.F64());
    }
  }
}

std::vector<float> FlDetector::HessianVector(const std::vector<float>& v) const {
  // Two-loop recursion with (s, y) swapped approximates the Hessian B ≈ H
  // rather than its inverse.
  std::vector<float> q = v;
  if (pairs_.empty()) {
    return q;
  }
  std::vector<double> alpha(pairs_.size(), 0.0);
  std::vector<double> rho(pairs_.size(), 0.0);
  // Backward pass (newest first).
  for (std::size_t k = pairs_.size(); k-- > 0;) {
    const auto& [s, y] = pairs_[k];
    double ys = stats::Dot(y, s);
    if (std::abs(ys) < 1e-12) {
      rho[k] = 0.0;
      continue;
    }
    rho[k] = 1.0 / ys;
    alpha[k] = rho[k] * stats::Dot(y, q);
    stats::Axpy(-alpha[k], s, q);
  }
  // Initial scaling: gamma = (y·s)/(s·s) of the newest pair → q *= gamma.
  const auto& [s_new, y_new] = pairs_.back();
  double ss = stats::Dot(s_new, s_new);
  double gamma = ss > 1e-12 ? stats::Dot(y_new, s_new) / ss : 1.0;
  stats::Scale(q, gamma);
  // Forward pass (oldest first).
  for (std::size_t k = 0; k < pairs_.size(); ++k) {
    if (rho[k] == 0.0) {
      continue;
    }
    const auto& [s, y] = pairs_[k];
    double beta = rho[k] * stats::Dot(s, q);
    stats::Axpy(alpha[k] - beta, y, q);
  }
  return q;
}

AggregationResult FlDetector::Process(const FilterContext& context,
                                      const std::vector<fl::ModelUpdate>& updates) {
  AF_CHECK(!updates.empty());
  AF_CHECK(context.rng != nullptr);

  // Snapshot the current global model so stale bases can be looked up later.
  global_snapshots_[context.round] =
      std::vector<float>(context.global_model.begin(),
                         context.global_model.end());
  while (global_snapshots_.size() > options_.snapshot_window) {
    // Drop the oldest round retained.
    auto oldest = global_snapshots_.begin();
    for (auto it = global_snapshots_.begin(); it != global_snapshots_.end();
         ++it) {
      if (it->first < oldest->first) {
        oldest = it;
      }
    }
    global_snapshots_.erase(oldest);
  }

  // 1. Raw prediction-error scores.
  std::vector<double> raw(updates.size(), -1.0);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    const auto& update = updates[i];
    auto it = clients_.find(update.client_id);
    if (it == clients_.end() ||
        it->second.last_update.size() != update.delta.size()) {
      continue;  // no history yet
    }
    // Global movement since the client's previous base model.
    const auto snap = global_snapshots_.find(it->second.last_base_round);
    if (snap == global_snapshots_.end()) {
      continue;
    }
    std::vector<float> movement = stats::Subtract(
        context.global_model, snap->second);
    std::vector<float> correction = HessianVector(movement);
    std::vector<float> predicted = stats::Add(it->second.last_update, correction);
    raw[i] = stats::Distance(predicted, update.delta);
  }
  // Neutral score (median of known) for history-less clients.
  std::vector<double> known;
  for (double r : raw) {
    if (r >= 0.0) {
      known.push_back(r);
    }
  }
  double neutral = 0.0;
  if (!known.empty()) {
    std::nth_element(known.begin(), known.begin() + known.size() / 2,
                     known.end());
    neutral = known[known.size() / 2];
  }
  for (double& r : raw) {
    if (r < 0.0) {
      r = neutral;
    }
  }

  // 2. Normalize and fold into each client's rolling average.
  double total = 0.0;
  for (double r : raw) {
    total += r;
  }
  std::vector<double> scores(updates.size(), 0.0);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    double normalized = total > 1e-12 ? raw[i] / total : 0.0;
    auto& history = clients_[updates[i].client_id];
    history.scores.push_back(normalized);
    while (history.scores.size() > options_.score_window) {
      history.scores.pop_front();
    }
    double avg = 0.0;
    for (double s : history.scores) {
      avg += s;
    }
    scores[i] = avg / static_cast<double>(history.scores.size());
  }

  // 3. Gap statistic decides whether an attack is present; if so, 2-means
  // splits and the higher-score cluster is rejected.
  std::vector<std::size_t> accepted;
  std::vector<std::size_t> rejected;
  std::size_t k = updates.size() >= 4
                      ? cluster::GapStatisticK(scores,
                                               std::min<std::size_t>(
                                                   options_.max_k,
                                                   updates.size() - 1),
                                               *context.rng)
                      : 1;
  if (k <= 1) {
    for (std::size_t i = 0; i < updates.size(); ++i) {
      accepted.push_back(i);
    }
  } else {
    cluster::KMeansResult split = cluster::KMeans1D(scores, 2, *context.rng);
    const bool high_is_1 = split.centroids[1][0] > split.centroids[0][0];
    const std::size_t bad = high_is_1 ? 1 : 0;
    for (std::size_t i = 0; i < updates.size(); ++i) {
      if (split.assignment[i] == bad) {
        rejected.push_back(i);
      } else {
        accepted.push_back(i);
      }
    }
    if (accepted.empty()) {
      accepted.swap(rejected);  // never reject everything
    }
  }

  // 4. Update curvature pairs and per-client history.
  std::vector<float> mean_update = stats::Mean(Deltas(updates));
  if (has_prev_) {
    std::vector<float> s = stats::Subtract(context.global_model, prev_global_);
    std::vector<float> y = stats::Subtract(mean_update, prev_mean_update_);
    pairs_.emplace_back(std::move(s), std::move(y));
    while (pairs_.size() > options_.lbfgs_window) {
      pairs_.pop_front();
    }
  }
  prev_global_.assign(context.global_model.begin(), context.global_model.end());
  prev_mean_update_ = mean_update;
  has_prev_ = true;
  for (const auto& update : updates) {
    auto& history = clients_[update.client_id];
    history.last_update = update.delta.ToVector();
    history.last_base_round = context.round;
  }

  return MakeFilterResult(updates, accepted, rejected,
                          context.staleness_weighting);
}

}  // namespace defense
