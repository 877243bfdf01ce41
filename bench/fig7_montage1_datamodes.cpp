// Reproduces Figure 7: storage space-time, transfer volumes and costs of
// the Montage 1-degree workflow under the three data-management modes.
#include "common.hpp"

int main(int argc, char** argv) {
  const mcsim::bench::Args args =
      mcsim::bench::parseArgs(argc, argv, {"jobs"}, {"csv"});
  mcsim::bench::printDataModeFigure("Fig 7", 1.0, args.csv, args.jobs);
  return 0;
}
