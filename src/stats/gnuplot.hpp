// Gnuplot script + data emitter — the framework's "plots" capability on the
// taxonomy's visual-output-analyzer axis.
//
// A simulation "generates huge amounts of data … difficult to be analyzed
// using a pure text format" (Section 3). LSDS-Sim's answer is plot-ready
// artifacts: PlotWriter materializes a .dat file (whitespace columns) and a
// matching .gp script so `gnuplot <name>.gp` renders the figure — no GUI
// dependency inside the library.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace lsds::stats {

class PlotWriter {
 public:
  struct Series {
    std::string title;
    std::vector<double> x;
    std::vector<double> y;
  };

  /// `basename` is the path prefix: writes <basename>.dat + <basename>.gp.
  PlotWriter(std::string basename, std::string plot_title);

  void set_axis_labels(std::string xlabel, std::string ylabel);
  /// Logarithmic axes (for the queue-structure and capacity sweeps).
  void set_logscale(bool x, bool y);

  void add_series(Series s);

  /// Render the .dat/.gp contents (exposed for tests).
  std::string dat_contents() const;
  std::string gp_contents() const;

  /// Write both files. Returns false on I/O failure.
  bool write() const;

 private:
  std::string basename_;
  std::string title_;
  std::string xlabel_ = "x";
  std::string ylabel_ = "y";
  bool logx_ = false, logy_ = false;
  std::vector<Series> series_;
};

}  // namespace lsds::stats
