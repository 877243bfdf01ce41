// Reproduces Figure 4: execution costs and execution time of the Montage
// 1-degree workflow as provisioned processors sweep 1..128.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  const bench::Args args = bench::parseArgs(argc, argv, {"jobs"}, {"csv"});
  bench::printProvisioningFigure(
      "Fig 4", 1.0,
      {{1, "paper: ~$0.60 total, 5.5 h"},
       {128, "paper: almost $4, 18 min"}},
      args.csv, args.jobs);
  return 0;
}
