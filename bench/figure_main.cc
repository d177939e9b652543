// One row of the figure table (figures.h) as a bench binary: CMake builds
// this file once per row, naming the row in PRESTO_FIGURE_ROW.
#include "figures.h"

int main(int argc, char** argv) {
  using namespace presto::bench;
  // First: trace_out() reads the --trace-out argument the reporter parses.
  JsonReporter json(PRESTO_FIGURE_ROW, argc, argv);
  const Row* row = find_row(PRESTO_FIGURE_ROW);
  if (row != nullptr) {
    run_row(*row, {seed_count(), time_scale(), thread_count(), trace_out()});
  }
  return row != nullptr ? 0 : 1;
}
