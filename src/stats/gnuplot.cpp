#include "stats/gnuplot.hpp"

#include <algorithm>
#include <fstream>

#include "util/strings.hpp"

namespace lsds::stats {

PlotWriter::PlotWriter(std::string basename, std::string plot_title)
    : basename_(std::move(basename)), title_(std::move(plot_title)) {}

void PlotWriter::set_axis_labels(std::string xlabel, std::string ylabel) {
  xlabel_ = std::move(xlabel);
  ylabel_ = std::move(ylabel);
}

void PlotWriter::set_logscale(bool x, bool y) {
  logx_ = x;
  logy_ = y;
}

void PlotWriter::add_series(Series s) { series_.push_back(std::move(s)); }

std::string PlotWriter::dat_contents() const {
  // Block-per-series format (gnuplot `index` addressing): robust to series
  // of different lengths.
  std::string out;
  for (std::size_t i = 0; i < series_.size(); ++i) {
    const Series& s = series_[i];
    out += util::strformat("# series %zu: %s\n", i, s.title.c_str());
    const std::size_t n = std::min(s.x.size(), s.y.size());
    for (std::size_t k = 0; k < n; ++k) {
      out += util::strformat("%.9g %.9g\n", s.x[k], s.y[k]);
    }
    out += "\n\n";  // gnuplot index separator
  }
  return out;
}

std::string PlotWriter::gp_contents() const {
  // Strip any directory prefix for the .dat reference so the script works
  // when run from the output directory.
  std::string datname = basename_;
  const auto slash = datname.find_last_of('/');
  if (slash != std::string::npos) datname = datname.substr(slash + 1);
  datname += ".dat";

  std::string out;
  out += util::strformat("set title \"%s\"\n", title_.c_str());
  out += util::strformat("set xlabel \"%s\"\n", xlabel_.c_str());
  out += util::strformat("set ylabel \"%s\"\n", ylabel_.c_str());
  if (logx_) out += "set logscale x\n";
  if (logy_) out += "set logscale y\n";
  out += "set key outside\n";
  out += "set grid\n";
  out += util::strformat("set terminal pngcairo size 960,640\nset output \"%s.png\"\n",
                         (basename_.find_last_of('/') == std::string::npos
                              ? basename_
                              : basename_.substr(basename_.find_last_of('/') + 1))
                             .c_str());
  out += "plot ";
  for (std::size_t i = 0; i < series_.size(); ++i) {
    if (i) out += ", \\\n     ";
    out += util::strformat("\"%s\" index %zu using 1:2 with linespoints title \"%s\"",
                           datname.c_str(), i, series_[i].title.c_str());
  }
  out += "\n";
  return out;
}

bool PlotWriter::write() const {
  {
    std::ofstream dat(basename_ + ".dat");
    if (!dat) return false;
    dat << dat_contents();
  }
  std::ofstream gp(basename_ + ".gp");
  if (!gp) return false;
  gp << gp_contents();
  return true;
}

}  // namespace lsds::stats
