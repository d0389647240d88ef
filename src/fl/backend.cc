#include "fl/backend.h"

#include <map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/check.h"

namespace fl {

InprocBackend::InprocBackend(std::vector<std::unique_ptr<Client>> clients,
                             util::ThreadPool* pool, std::uint64_t seed,
                             LocalTrainConfig local,
                             const compress::Codec* codec)
    : clients_(std::move(clients)),
      pool_(pool),
      rngs_(seed),
      local_(local),
      codec_(codec != nullptr && !compress::IsIdentity(*codec) ? codec
                                                               : nullptr),
      feedback_(codec_ != nullptr ? clients_.size() : 0) {
  AF_CHECK(!clients_.empty());
  AF_CHECK(pool_ != nullptr);
}

std::size_t InprocBackend::NumSamples(int client_id) const {
  return clients_[static_cast<std::size_t>(client_id)]->num_samples();
}

std::vector<net::UpdateView> InprocBackend::TrainAlongside(
    const std::vector<TrainJob>& jobs, const std::function<void()>& meanwhile) {
  // Same-client jobs share a model instance; serialise them into waves so
  // each wave touches each client at most once.
  std::vector<std::vector<std::size_t>> waves;
  std::vector<std::size_t> jobs_seen(clients_.size(), 0);
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const std::size_t cid = static_cast<std::size_t>(jobs[j].client_id);
    const std::size_t wave = jobs_seen[cid]++;
    if (waves.size() <= wave) {
      waves.emplace_back();
    }
    waves[wave].push_back(j);
  }

  std::vector<net::UpdateView> honest(jobs.size());
  // Mirror of the wire's downlink policy: broadcast-safe codecs compress
  // full params, delta-only codecs fall back to identity for the base. The
  // wire encodes each distinct base once, and so does the mirror: the
  // round trip is a pure function of the base.
  std::map<const std::vector<float>*, std::vector<float>> received;
  if (codec_ != nullptr && codec_->broadcast_safe()) {
    for (const TrainJob& job : jobs) {
      auto [it, fresh] = received.try_emplace(job.base.get());
      if (fresh) {
        it->second = compress::RoundTrip(*codec_, *job.base);
      }
    }
  }
  // `meanwhile` rides on the first wave; with no jobs it runs here.
  if (waves.empty() && meanwhile) {
    meanwhile();
  }
  const std::function<void()> nothing;
  for (std::size_t v = 0; v < waves.size(); ++v) {
    AF_TRACE_SPAN("train.wave");
    const std::vector<std::size_t>& wave = waves[v];
    pool_->ParallelFor(wave.size(), [&](std::size_t w) {
      AF_TRACE_SPAN("train.job");
      const std::size_t j = wave[w];
      const TrainJob& job = jobs[j];
      const std::size_t cid = static_cast<std::size_t>(job.client_id);
      const std::uint64_t stream_index =
          (static_cast<std::uint64_t>(cid) << 32) | job.job_index;
      auto rng = rngs_.Stream("client-train", stream_index);
      if (codec_ == nullptr) {
        honest[j] = clients_[cid]->TrainOnce(*job.base, local_, rng);
        return;
      }
      // Feedback stays per-client: each wave holds one job per client and
      // waves run in job_index order, matching the tcp worker's sequential
      // encode order.
      const auto it = received.find(job.base.get());
      const std::vector<float>& base =
          it != received.end() ? it->second : *job.base;
      std::vector<float> delta = clients_[cid]->TrainOnce(base, local_, rng);
      honest[j] = compress::RoundTrip(*codec_, delta, &feedback_[cid]);
    }, v == 0 ? meanwhile : nothing);
  }
  // Inproc jobs never serialize: every delta view takes ownership of the
  // trained vector directly, zero copies per update.
  obs::DefaultRegistry()
      .GetCounter("transport.updates")
      .Increment(static_cast<std::uint64_t>(jobs.size()));
  return honest;
}

}  // namespace fl
