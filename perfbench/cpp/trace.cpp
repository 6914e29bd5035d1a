#include "trace.hpp"

#include <filesystem>
#include <fstream>

namespace perfbench {

std::int64_t Tracer::ns_at(Clock::time_point t) const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
      .count();
}

int Tracer::open(const char* name, int parent) {
  const int id = static_cast<int>(spans_.size());
  const int root =
      parent == kRoot ? id : spans_[static_cast<std::size_t>(parent)].root;
  if (parent == kRoot) ++roots_;
  const std::int64_t now = now_ns();
  spans_.push_back({name, root, parent, now, now});
  return id;
}

void Tracer::close(int span) {
  spans_[static_cast<std::size_t>(span)].end_ns = now_ns();
}

int Tracer::add(const char* name, int parent, std::int64_t start_ns,
                std::int64_t duration_ns) {
  const int id = static_cast<int>(spans_.size());
  const int root =
      parent == kRoot ? id : spans_[static_cast<std::size_t>(parent)].root;
  if (parent == kRoot) ++roots_;
  spans_.push_back({name, root, parent, start_ns, start_ns + duration_ns});
  return id;
}

void Tracer::count(const std::string& name, double amount) {
  counters_[name] += amount;
}

std::int64_t Tracer::start_ns(int span) const {
  return spans_[static_cast<std::size_t>(span)].start_ns;
}

std::int64_t Tracer::duration_ns(int span) const {
  const Span& s = spans_[static_cast<std::size_t>(span)];
  return s.end_ns - s.start_ns;
}

std::vector<double> Tracer::child_ns() const {
  std::vector<double> sum(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent != kRoot) {
      sum[static_cast<std::size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  return sum;
}

std::map<std::string, Tracer::Layer> Tracer::layers() const {
  const std::vector<double> children = child_ns();
  std::map<std::string, Layer> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Layer& layer = out[s.name];
    layer.self_ms +=
        (static_cast<double>(s.end_ns - s.start_ns) - children[i]) / 1e6;
    ++layer.calls;
  }
  return out;
}

double Tracer::stage_self_ms() const {
  const std::vector<double> children = child_ns();
  double total = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent == kRoot) continue;
    total += (static_cast<double>(s.end_ns - s.start_ns) - children[i]) / 1e6;
  }
  return total;
}

double Tracer::root_ms() const {
  double total = 0;
  for (const Span& s : spans_) {
    if (s.parent == kRoot) total += static_cast<double>(s.end_ns - s.start_ns);
  }
  return total / 1e6;
}

double Tracer::stage_ms(int root) const {
  double total = 0;
  for (std::size_t i = static_cast<std::size_t>(root) + 1; i < spans_.size();
       ++i) {
    const Span& s = spans_[i];
    if (s.parent == root) total += static_cast<double>(s.end_ns - s.start_ns);
  }
  return total / 1e6;
}

double Tracer::counter(const std::string& name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0.0 : it->second;
}

bool Tracer::write(const std::string& path) const {
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::ofstream out(path);
  if (!out) return false;
  out << "id\troot\tparent\tname\tstart_ns\tend_ns\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << i << '\t' << s.root << '\t' << s.parent << '\t' << s.name << '\t'
        << s.start_ns << '\t' << s.end_ns << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
