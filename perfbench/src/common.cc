#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "net/protocol.h"

namespace mosaic {
namespace perfbench {

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void Fatal(const std::string& what, const Status& status) {
  std::fprintf(stderr, "perfbench: FATAL %s: %s\n", what.c_str(),
               status.ToString().c_str());
  std::fflush(stderr);
  std::_Exit(2);
}

double ProcessCpuMs() {
  struct timespec ts {};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

// ---- Samples -------------------------------------------------------------

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  // Nearest rank: the smallest value with at least q of the samples
  // at or below it.
  double rank = std::ceil(q * static_cast<double>(sorted.size()));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return sorted[std::min(idx, sorted.size() - 1)];
}

double Samples::Mean() const {
  if (values_.empty()) return 0.0;
  double acc = 0.0;
  for (double v : values_) acc += v;
  return acc / static_cast<double>(values_.size());
}

double Samples::TrimmedMean() const {
  if (values_.empty()) return 0.0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const size_t cut = sorted.size() / 4;
  double acc = 0.0;
  for (size_t i = cut; i < sorted.size() - cut; ++i) acc += sorted[i];
  return acc / static_cast<double>(sorted.size() - 2 * cut);
}

double Samples::HighestSupportedPercentile() const {
  double best = 0.0;
  for (double p : {0.5, 0.9, 0.99, 0.999}) {
    if (static_cast<double>(values_.size()) * (1.0 - p) >= 10.0) best = p;
  }
  return best;
}

// ---- Report --------------------------------------------------------------

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  Expect(std::isfinite(value), "metric " + name + " is finite");
  metrics_[name] = {std::isfinite(value) ? value : 0.0, unit};
}

void Report::Timing(const std::string& name, const Samples& samples,
                    const std::string& unit) {
  const double p = samples.HighestSupportedPercentile();
  std::ostringstream os;
  os << "{\"name\": " << JsonString(name) << ", \"unit\": "
     << JsonString(unit) << ", \"count\": " << samples.count()
     << ", \"median\": " << JsonNumber(samples.Median())
     << ", \"max\": " << JsonNumber(samples.Max());
  for (double q : {0.9, 0.99}) {
    if (q <= p) {
      char label[16];
      std::snprintf(label, sizeof(label), "p%g", q * 100.0);
      os << ", \"" << label << "\": " << JsonNumber(samples.Quantile(q));
    }
  }
  if (p > 0.0) {
    char label[16];
    std::snprintf(label, sizeof(label), "p%g", p * 100.0);
    os << ", \"tail\": " << JsonString(label)
       << ", \"tail_value\": " << JsonNumber(samples.Quantile(p));
  }
  os << "}";
  timings_.push_back(os.str());
}

void Report::Info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::Expect(bool ok, const std::string& what) {
  if (ok) {
    ++checks_passed_;
    return;
  }
  ++checks_failed_;
  failed_checks_.push_back(what);
  std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
}

void Report::Print() const {
  std::ostringstream d;
  d << "{\"details\": {\"checks_passed\": " << checks_passed_
    << ", \"checks_failed\": [";
  for (size_t i = 0; i < failed_checks_.size(); ++i) {
    d << (i ? ", " : "") << JsonString(failed_checks_[i]);
  }
  d << "], \"context\": {";
  for (size_t i = 0; i < info_.size(); ++i) {
    d << (i ? ", " : "") << JsonString(info_[i].first) << ": "
      << JsonString(info_[i].second);
  }
  d << "}, \"timings\": [";
  for (size_t i = 0; i < timings_.size(); ++i) {
    d << (i ? ", " : "") << timings_[i];
  }
  d << "]}}";
  std::printf("%s\n", d.str().c_str());

  std::ostringstream r;
  r << "{\"correct\": " << (correct() ? "true" : "false")
    << ", \"attempted\": " << std::max<uint64_t>(attempted_, 1)
    << ", \"failed\": " << failed_ << ", \"metrics\": {";
  bool first = true;
  // A failed check is never reported as a metric.
  if (correct()) {
    for (const auto& [name, vu] : metrics_) {
      r << (first ? "" : ", ") << JsonString(name) << ": {\"value\": "
        << JsonNumber(vu.first) << ", \"unit\": " << JsonString(vu.second)
        << "}";
      first = false;
    }
  }
  r << "}}";
  std::printf("%s\n", r.str().c_str());
  std::fflush(stdout);
}

// ---- SpanRecorder --------------------------------------------------------

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), origin_(Clock::now()) {}

int64_t SpanRecorder::Now() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

uint32_t SpanRecorder::Begin(const std::string& name, uint32_t parent) {
  if (!enabled_) return 0;
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, parent, now, now});
  return static_cast<uint32_t>(spans_.size());
}

void SpanRecorder::End(uint32_t id) {
  if (!enabled_ || id == 0) return;
  const int64_t now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = now;
}

uint32_t SpanRecorder::Add(const std::string& name, uint32_t parent,
                           Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return 0;
  auto ns = [this](Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  };
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, parent, ns(start), ns(end)});
  return static_cast<uint32_t>(spans_.size());
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

double SpanRecorder::SelfMs(const std::string& layer, uint32_t root) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto below_root = [&](uint32_t id) {
    for (uint32_t p = spans_[id - 1].parent; p != 0; p = spans_[p - 1].parent) {
      if (p == root) return true;
    }
    return false;
  };
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ns[s.parent - 1] += s.end_ns - s.start_ns;
  }
  const std::string prefix = layer + ".";
  int64_t self = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name.compare(0, prefix.size(), prefix) != 0 ||
        !below_root(static_cast<uint32_t>(i + 1))) {
      continue;
    }
    // Children of one parent run sequentially here, so their summed
    // durations are the covered part of the parent's interval.
    self += std::max<int64_t>(
        0, spans_[i].end_ns - spans_[i].start_ns - child_ns[i]);
  }
  return static_cast<double>(self) / 1e6;
}

Status SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot write " + path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i + 1 << ", \"parent\": " << s.parent
        << ", \"name\": " << JsonString(s.name)
        << ", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << "}\n";
  }
  return out ? Status::OK() : Status::IOError("short write " + path);
}

// ---- Served --------------------------------------------------------------

Served::Served(service::ServiceOptions options)
    : service_(std::make_unique<service::QueryService>(std::move(options))) {
  Check(service_->durability_status(), "service recovery");
}

Served::~Served() { Stop(); }

void Served::Start() {
  net::ServerOptions opts;
  opts.port = 0;  // ephemeral loopback port
  server_ = std::make_unique<net::Server>(service_.get(), opts);
  Check(server_->Start(), "server start");
}

net::Client Served::Connect() const {
  net::Client client;
  net::ClientOptions opts;
  opts.port = port();
  opts.client_name = "perfbench";
  Check(client.Connect(opts), "connect");
  return client;
}

void Served::Stop() {
  if (server_ != nullptr) {
    server_->Shutdown();
    server_.reset();
  }
  if (service_ != nullptr) {
    service_->Shutdown();
    service_.reset();
  }
}

// ---- helpers -------------------------------------------------------------

std::string TableBytes(const Table& t) {
  net::WireWriter w;
  net::EncodeTable(t, &w);
  return w.Take();
}

Zipf::Zipf(size_t n, double s) {
  cdf_.resize(n);
  double acc = 0.0;
  for (size_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

size_t Zipf::Draw(uint64_t u) const {
  const double x = static_cast<double>(u >> 11) * 0x1.0p-53;
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), x);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

namespace {
std::vector<std::string>& ScratchDirs() {
  static std::vector<std::string> dirs;
  return dirs;
}
}  // namespace

std::string MakeScratchDir(const std::string& tag) {
  std::error_code ec;
  std::filesystem::create_directories(".bench_out", ec);
  std::string tmpl = ".bench_out/" + tag + "-XXXXXX";
  std::vector<char> buf(tmpl.begin(), tmpl.end());
  buf.push_back('\0');
  if (::mkdtemp(buf.data()) == nullptr) {
    Fatal("mkdtemp", Status::IOError(tmpl));
  }
  ScratchDirs().push_back(buf.data());
  return buf.data();
}

void RemoveScratchDirs() {
  for (const std::string& dir : ScratchDirs()) RemoveTree(dir);
  ScratchDirs().clear();
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

Status CopyDir(const std::string& from, const std::string& to) {
  std::error_code ec;
  std::filesystem::copy(from, to, ec);
  return ec ? Status::IOError("copy " + from + ": " + ec.message())
            : Status::OK();
}

}  // namespace perfbench
}  // namespace mosaic
