// Reproduces Figure 5: execution costs and execution time of the Montage
// 2-degree workflow as provisioned processors sweep 1..128.
#include "common.hpp"

int main(int argc, char** argv) {
  using namespace mcsim;
  const bench::Args args = bench::parseArgs(argc, argv, {"jobs"}, {"csv"});
  bench::printProvisioningFigure(
      "Fig 5", 2.0,
      {{1, "paper: $2.25 total, 20.5 h"},
       {128, "paper: <$8, <40 min"}},
      args.csv, args.jobs);
  return 0;
}
