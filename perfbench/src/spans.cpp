#include "spans.hpp"

#include <cstdio>
#include <memory>

namespace perfbench {

SpanRecorder::Scope::Scope(SpanRecorder* rec, const char* name,
                           const ssps::sim::Network* net)
    : rec_(rec != nullptr && rec->enabled_ ? rec : nullptr), net_(net) {
  if (rec_ == nullptr) return;
  Span s;
  s.name = name;
  s.episode = rec_->episode_;
  s.parent = rec_->open_;
  if (net_ != nullptr) {
    const ssps::sim::Metrics& m = net_->metrics();
    s.sent = m.total_sent();
    s.delivered = m.total_delivered();
    s.bytes = m.total_bytes();
  }
  index_ = rec_->spans_.size();
  saved_parent_ = rec_->open_;
  rec_->open_ = static_cast<std::int64_t>(index_);
  s.start_us = rec_->now_us();
  rec_->spans_.push_back(s);
}

SpanRecorder::Scope::~Scope() {
  if (rec_ == nullptr) return;
  Span& s = rec_->spans_[index_];
  s.end_us = rec_->now_us();
  if (net_ != nullptr) {
    const ssps::sim::Metrics& m = net_->metrics();
    s.sent = m.total_sent() - s.sent;
    s.delivered = m.total_delivered() - s.delivered;
    s.bytes = m.total_bytes() - s.bytes;
  }
  rec_->open_ = saved_parent_;
}

bool SpanRecorder::counted(const Span& s, std::string_view name,
                           std::uint32_t episode, std::string_view outside) const {
  if (s.episode != episode || name != s.name) return false;
  if (outside.empty()) return true;
  for (std::int64_t p = s.parent; p >= 0; p = spans_[static_cast<std::size_t>(p)].parent) {
    if (outside == spans_[static_cast<std::size_t>(p)].name) return false;
  }
  return true;
}

double SpanRecorder::total_s(std::string_view name, std::uint32_t episode,
                             std::string_view outside) const {
  double total_us = 0;
  for (const Span& s : spans_) {
    if (counted(s, name, episode, outside)) total_us += s.end_us - s.start_us;
  }
  return total_us / 1e6;
}

std::size_t SpanRecorder::calls(std::string_view name, std::uint32_t episode,
                                std::string_view outside) const {
  std::size_t n = 0;
  for (const Span& s : spans_) {
    if (counted(s, name, episode, outside)) ++n;
  }
  return n;
}

std::vector<double> SpanRecorder::durations_ms(std::string_view name, std::uint32_t episode,
                                               std::string_view outside) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (counted(s, name, episode, outside)) out.push_back((s.end_us - s.start_us) / 1e3);
  }
  return out;
}

bool SpanRecorder::write_chrome_json(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"),
                                                   &std::fclose);
  if (!f) return false;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f.get());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f.get(),
                 "%s\n{\"name\":\"%s\",\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%lld,\"sent\":%llu,\"delivered\":%llu,\"bytes\":%llu}}",
                 i == 0 ? "" : ",", s.name, s.episode, s.start_us,
                 s.end_us - s.start_us, i, static_cast<long long>(s.parent),
                 static_cast<unsigned long long>(s.sent),
                 static_cast<unsigned long long>(s.delivered),
                 static_cast<unsigned long long>(s.bytes));
  }
  std::fputs("\n]}\n", f.get());
  return std::ferror(f.get()) == 0 && std::fclose(f.release()) == 0;
}

}  // namespace perfbench
