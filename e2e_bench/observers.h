// Outside-in observers: a span tracer kept in memory, and forwarding
// decorators over the three layer interfaces the simulation calls
// (TrainBackend, Attack, Defense). Nothing here touches src/; every span is
// recorded around a call into a layer.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "attacks/attack.h"
#include "defense/defense.h"
#include "fl/backend.h"

namespace e2e {

std::int64_t NowNs();

// Spans of one traced run. A span's parent is the innermost span still open
// on the same thread when it began; `round` is the aggregation round the
// work belongs to (-1 outside the round loop).
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;  // string literal
    std::uint32_t thread = 0;
    std::int64_t begin_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 = root
    std::int64_t round = -1;

    double seconds() const { return static_cast<double>(end_ns - begin_ns) / 1e9; }
  };

  // RAII span; a null tracer makes it a no-op.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    Span span_;
  };

  // The round new spans are tagged with: the caller sets 0 when the
  // simulation starts and TimedDefense advances it after each aggregation.
  std::int64_t round() const { return round_.load(); }
  void SetRound(std::int64_t round) { round_.store(round); }

  std::vector<Span> Spans() const;

  // Lengths, in seconds, of the spans called `name`, and their sum.
  std::vector<double> Durations(const std::string& name) const;
  double BusySeconds(const std::string& name) const;
  // Summed span length minus the time covered by direct children.
  double SelfSeconds(const std::string& name) const;

  // Chrome trace-event JSON ("X" events; args carry id, parent, round and
  // self_us), readable by tools/merge_traces.py and ui.perfetto.dev.
  void WriteChromeTrace(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
  std::uint64_t next_id_ = 1;  // guarded by mutex_
  std::atomic<std::int64_t> round_{-1};
};

// Start time and buffer size of every Defense::Process call.
struct ProcessLog {
  std::vector<std::int64_t> starts_ns;
  std::vector<std::size_t> buffered;
};

// Forwards to the wrapped defense. Always stamps the start of every
// Process call into `log` (the untraced run's only per-round observer);
// with a tracer it also records a "defense.process" span and advances the
// round. `log` and `tracer` must outlive the decorator.
class TimedDefense : public defense::Defense {
 public:
  TimedDefense(std::unique_ptr<defense::Defense> inner, ProcessLog* log,
               Tracer* tracer)
      : inner_(std::move(inner)), log_(log), tracer_(tracer) {}

  defense::AggregationResult Process(
      const defense::FilterContext& context,
      const std::vector<fl::ModelUpdate>& updates) override;
  std::string Name() const override { return inner_->Name(); }
  void Reset() override { inner_->Reset(); }
  void SaveState(util::serial::Writer& w) const override { inner_->SaveState(w); }
  void LoadState(util::serial::Reader& r) override { inner_->LoadState(r); }
  bool RequiresServerReference() const override {
    return inner_->RequiresServerReference();
  }

 private:
  std::unique_ptr<defense::Defense> inner_;
  ProcessLog* log_;
  Tracer* tracer_;
};

class TimedAttack : public attacks::Attack {
 public:
  TimedAttack(std::unique_ptr<attacks::Attack> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  std::vector<float> Craft(const attacks::AttackContext& context) override;
  std::string Name() const override { return inner_->Name(); }

 private:
  std::unique_ptr<attacks::Attack> inner_;
  Tracer* tracer_;
};

class TimedBackend : public fl::TrainBackend {
 public:
  TimedBackend(fl::TrainBackend* inner, Tracer* tracer)
      : inner_(inner), tracer_(tracer) {}

  std::vector<net::UpdateView> Train(const std::vector<fl::TrainJob>& jobs) override;
  std::size_t ClientCount() const override { return inner_->ClientCount(); }
  std::size_t NumSamples(int client_id) const override {
    return inner_->NumSamples(client_id);
  }
  bool IsAlive(int client_id) const override { return inner_->IsAlive(client_id); }
  std::size_t AliveCount() const override { return inner_->AliveCount(); }
  WireStats UpdateWireStats(int client_id, std::uint64_t job_index) const override {
    return inner_->UpdateWireStats(client_id, job_index);
  }

  std::size_t jobs() const { return jobs_; }
  std::size_t lost_jobs() const { return lost_jobs_; }

 private:
  fl::TrainBackend* inner_;
  Tracer* tracer_;
  std::size_t jobs_ = 0;
  std::size_t lost_jobs_ = 0;
};

}  // namespace e2e
