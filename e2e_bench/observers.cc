#include "observers.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <stdexcept>

namespace e2e {
namespace {

std::uint32_t ThreadIndex() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

// Ids of the spans open on this thread, innermost last.
thread_local std::vector<std::uint64_t> open_spans;

}  // namespace

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

Tracer::Scope::Scope(Tracer* tracer, const char* name) : tracer_(tracer) {
  if (tracer_ == nullptr) {
    return;
  }
  span_.name = name;
  span_.thread = ThreadIndex();
  span_.round = tracer_->round();
  span_.parent = open_spans.empty() ? 0 : open_spans.back();
  {
    std::lock_guard<std::mutex> lock(tracer_->mutex_);
    span_.id = tracer_->next_id_++;
  }
  open_spans.push_back(span_.id);
  span_.begin_ns = NowNs();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) {
    return;
  }
  span_.end_ns = NowNs();
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(tracer_->mutex_);
  tracer_->spans_.push_back(span_);
}

std::vector<Tracer::Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : Spans()) {
    if (name == span.name) {
      out.push_back(span.seconds());
    }
  }
  return out;
}

double Tracer::BusySeconds(const std::string& name) const {
  double total = 0.0;
  for (double s : Durations(name)) {
    total += s;
  }
  return total;
}

namespace {

// Child time per parent id. Children of one parent run on the parent's
// thread, one after another, so their lengths add up without overlap.
std::map<std::uint64_t, std::int64_t> ChildNs(const std::vector<Tracer::Span>& spans) {
  std::map<std::uint64_t, std::int64_t> child_ns;
  for (const Tracer::Span& span : spans) {
    if (span.parent != 0) {
      child_ns[span.parent] += span.end_ns - span.begin_ns;
    }
  }
  return child_ns;
}

}  // namespace

double Tracer::SelfSeconds(const std::string& name) const {
  const std::vector<Span> spans = Spans();
  const auto child_ns = ChildNs(spans);
  std::int64_t self_ns = 0;
  for (const Span& span : spans) {
    if (name != span.name) {
      continue;
    }
    const auto it = child_ns.find(span.id);
    self_ns += span.end_ns - span.begin_ns - (it == child_ns.end() ? 0 : it->second);
  }
  return static_cast<double>(self_ns) / 1e9;
}

void Tracer::WriteChromeTrace(const std::string& path) const {
  const std::vector<Span> spans = Spans();
  const auto child_ns = ChildNs(spans);
  std::int64_t origin = spans.empty() ? 0 : spans.front().begin_ns;
  for (const Span& span : spans) {
    origin = std::min(origin, span.begin_ns);
  }
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    throw std::runtime_error("cannot open trace output " + path);
  }
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const auto it = child_ns.find(span.id);
    const std::int64_t self_ns =
        span.end_ns - span.begin_ns - (it == child_ns.end() ? 0 : it->second);
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":0,\"tid\":%u,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,"
                 "\"round\":%lld,\"self_us\":%.3f}}",
                 i == 0 ? "" : ",", span.name, span.thread,
                 static_cast<double>(span.begin_ns - origin) / 1e3,
                 static_cast<double>(span.end_ns - span.begin_ns) / 1e3,
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<long long>(span.round),
                 static_cast<double>(self_ns) / 1e3);
  }
  std::fprintf(out, "\n]}\n");
  if (std::fclose(out) != 0) {
    throw std::runtime_error("cannot write trace output " + path);
  }
}

defense::AggregationResult TimedDefense::Process(
    const defense::FilterContext& context,
    const std::vector<fl::ModelUpdate>& updates) {
  log_->starts_ns.push_back(NowNs());
  log_->buffered.push_back(updates.size());
  defense::AggregationResult result;
  {
    Tracer::Scope span(tracer_, "defense.process");
    result = inner_->Process(context, updates);
  }
  if (tracer_ != nullptr) {
    tracer_->SetRound(tracer_->round() + 1);
  }
  return result;
}

std::vector<float> TimedAttack::Craft(const attacks::AttackContext& context) {
  Tracer::Scope span(tracer_, "attack.craft");
  return inner_->Craft(context);
}

std::vector<net::UpdateView> TimedBackend::Train(
    const std::vector<fl::TrainJob>& jobs) {
  Tracer::Scope span(tracer_, "train");
  std::vector<net::UpdateView> honest = inner_->Train(jobs);
  jobs_ += jobs.size();
  lost_jobs_ += static_cast<std::size_t>(
      std::count_if(honest.begin(), honest.end(),
                    [](const net::UpdateView& v) { return v.empty(); }));
  return honest;
}

}  // namespace e2e
