// Reproduces Figure 8: data-management metrics of the Montage 2-degree
// workflow (paper: "cost distributions are similar for all the workflows
// and differ only in magnitude").
#include "common.hpp"

int main(int argc, char** argv) {
  const mcsim::bench::Args args =
      mcsim::bench::parseArgs(argc, argv, {"jobs"}, {"csv"});
  mcsim::bench::printDataModeFigure("Fig 8", 2.0, args.csv, args.jobs);
  return 0;
}
