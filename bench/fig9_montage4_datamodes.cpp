// Reproduces Figure 9: data-management metrics of the Montage 4-degree
// workflow.
#include "common.hpp"

int main(int argc, char** argv) {
  const mcsim::bench::Args args =
      mcsim::bench::parseArgs(argc, argv, {"jobs"}, {"csv"});
  mcsim::bench::printDataModeFigure("Fig 9", 4.0, args.csv, args.jobs);
  return 0;
}
