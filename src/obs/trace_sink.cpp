#include "obs/trace_sink.hpp"

#include <stdexcept>

#include "obs/json.hpp"

namespace lsds::obs {

TraceSink::TraceSink(const std::string& path) : path_(path), file_(std::fopen(path.c_str(), "w")) {
  if (!file_) throw std::runtime_error("TraceSink: cannot open " + path + " for writing");
}

TraceSink::~TraceSink() {
  append_lp_lines();
  std::fclose(file_);
}

void TraceSink::write_line(const std::string& line) {
  std::lock_guard<std::mutex> lock(mu_);
  std::fwrite(line.data(), 1, line.size(), file_);
  std::fputc('\n', file_);
  ++records_;
}

void TraceSink::append_lp_lines() {
  std::lock_guard<std::mutex> lock(mu_);
  for (std::string& lines : lp_lines_) {
    std::fwrite(lines.data(), 1, lines.size(), file_);
  }
  lp_lines_.clear();
}

void TraceSink::record_span(const Span& s, int lp) {
  std::string line = "{\"type\":\"span\",\"kind\":";
  line += Json::quote(s.kind);
  line += ",\"id\":" + std::to_string(s.id);
  line += ",\"t0\":" + Json::number(s.t0);
  line += ",\"t1\":" + Json::number(s.t1);
  line += ",\"quantity\":" + Json::number(s.quantity);
  line += ",\"src\":" + std::to_string(s.src);
  line += ",\"dst\":" + std::to_string(s.dst);
  line += ",\"status\":";
  line += Json::quote(s.status);
  if (s.name) {
    line += ",\"name\":";
    line += Json::quote(s.name);
  }
  line += "}";
  if (lp < 0) {
    write_line(line);
    return;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (lp_lines_.size() <= static_cast<std::size_t>(lp)) lp_lines_.resize(lp + 1);
  lp_lines_[lp] += line;
  lp_lines_[lp] += '\n';
  ++records_;
}

void TraceSink::record_event(double t, std::uint64_t seq) {
  write_line("{\"type\":\"event\",\"t\":" + Json::number(t) + ",\"seq\":" + std::to_string(seq) +
             "}");
}

void TraceSink::flush() {
  std::lock_guard<std::mutex> lock(mu_);
  std::fflush(file_);
}

}  // namespace lsds::obs
