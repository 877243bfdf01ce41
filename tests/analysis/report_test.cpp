#include "mcsim/analysis/report.hpp"

#include <gtest/gtest.h>

#include "mcsim/cloud/provider.hpp"

namespace mcsim::analysis {
namespace {

TEST(Report, MoneyCellFourDecimals) {
  EXPECT_EQ(moneyCell(Money(0.56)), "$0.5600");
  EXPECT_EQ(moneyCell(Money(0.0001)), "$0.0001");
  EXPECT_EQ(moneyCell(Money(13.92)), "$13.9200");
}

TEST(Report, ProvisioningTableRendersAnchors) {
  ProvisioningPoint p;
  p.processors = 1;
  p.makespanSeconds = 5.5 * 3600.0;
  p.cpuCost = Money(0.55);
  p.storageCost = Money(0.001);
  p.storageCleanupCost = Money(0.0008);
  p.transferCost = Money(0.05);
  p.totalCost = Money(0.601);
  p.utilization = 0.98;
  const Table t = provisioningTable(
      {p}, {{1, "paper: ~$0.60, 5.5 h"}});
  const std::string out = t.toString();
  EXPECT_NE(out.find("5.50 h"), std::string::npos);
  EXPECT_NE(out.find("paper: ~$0.60"), std::string::npos);
  EXPECT_NE(out.find("$0.5500"), std::string::npos);
  EXPECT_EQ(t.rowCount(), 1u);
}

TEST(Report, DataModeTableHasAllModes) {
  std::vector<DataModeMetrics> rows(3);
  rows[0].mode = engine::DataMode::RemoteIO;
  rows[1].mode = engine::DataMode::Regular;
  rows[2].mode = engine::DataMode::DynamicCleanup;
  const std::string out = dataModeTable(rows).toString();
  EXPECT_NE(out.find("remote-io"), std::string::npos);
  EXPECT_NE(out.find("regular"), std::string::npos);
  EXPECT_NE(out.find("cleanup"), std::string::npos);
}

TEST(Report, CcrTableRows) {
  CcrPoint a;
  a.ccr = 0.053;
  CcrPoint b;
  b.ccr = 4.0;
  const Table t = ccrTable({a, b});
  EXPECT_EQ(t.rowCount(), 2u);
  EXPECT_NE(t.toString().find("0.053"), std::string::npos);
}

TEST(Report, CpuVsDmTable) {
  CpuVsDmRow r;
  r.workflow = "montage-2deg";
  r.mode = engine::DataMode::Regular;
  r.cpuCost = Money(2.03);
  r.dmCost = Money(0.19);
  r.totalCost = Money(2.22);
  const std::string out = cpuVsDmTable({r}).toString();
  EXPECT_NE(out.find("montage-2deg"), std::string::npos);
  EXPECT_NE(out.find("$2.0300"), std::string::npos);
}

TEST(Report, ArchiveEconomicsTable) {
  const ArchiveEconomics e = archiveBreakEven(
      Bytes::fromTB(12.0), Money(2.12), Money(2.22),
      cloud::ProviderCatalog::builtin().pricing("amazon-2008"));
  const std::string out = archiveEconomicsTable(e).toString();
  EXPECT_NE(out.find("12.00 TB"), std::string::npos);
  EXPECT_NE(out.find("$1,800.00"), std::string::npos);
  EXPECT_NE(out.find("18000"), std::string::npos);
}

TEST(Report, ArchiveEconomicsNeverBreaksEven) {
  const ArchiveEconomics e = archiveBreakEven(
      Bytes::fromTB(1.0), Money(5.0), Money(1.0),
      cloud::ProviderCatalog::builtin().pricing("amazon-2008"));
  EXPECT_NE(archiveEconomicsTable(e).toString().find("never"),
            std::string::npos);
}

TEST(Report, ArchivalDecisionTableLabels) {
  const auto d = mosaicArchivalDecision(
      Money(0.56), Bytes::fromMB(173.46),
      cloud::ProviderCatalog::builtin().pricing("amazon-2008"));
  const std::string out =
      archivalDecisionTable({d}, {"1 degree"}).toString();
  EXPECT_NE(out.find("1 degree"), std::string::npos);
  EXPECT_NE(out.find("21.52"), std::string::npos);
}

}  // namespace
}  // namespace mcsim::analysis
