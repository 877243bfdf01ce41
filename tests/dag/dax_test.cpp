#include "mcsim/dag/dax.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "tests/common/fixtures.hpp"
#include "mcsim/dag/algorithms.hpp"
#include "mcsim/util/xml.hpp"

namespace mcsim::dag {
namespace {

constexpr const char* kSmallDax = R"(<?xml version="1.0"?>
<adag name="mini">
  <job id="J1" name="mProject_1" type="mProject" runtime="98.5">
    <uses file="in.fits" link="input" size="4000000"/>
    <uses file="proj.fits" link="output" size="16000000"/>
  </job>
  <job id="J2" name="mAdd" type="mAdd" runtime="120">
    <uses file="proj.fits" link="input" size="16000000"/>
    <uses file="mosaic.fits" link="output" size="173460000"/>
  </job>
</adag>)";

TEST(Dax, ParsesJobsFilesAndDependencies) {
  const Workflow wf = readDax(kSmallDax);
  EXPECT_EQ(wf.name(), "mini");
  ASSERT_EQ(wf.taskCount(), 2u);
  ASSERT_EQ(wf.fileCount(), 3u);
  EXPECT_EQ(wf.task(0).name, "mProject_1");
  EXPECT_EQ(wf.task(0).type, "mProject");
  EXPECT_DOUBLE_EQ(wf.task(0).runtimeSeconds, 98.5);
  // Data dependency via proj.fits.
  EXPECT_EQ(wf.task(1).parents, (std::vector<TaskId>{0}));
  EXPECT_EQ(wf.task(1).level, 2);
  EXPECT_EQ(wf.externalInputs().size(), 1u);
  EXPECT_EQ(wf.workflowOutputs().size(), 1u);
  EXPECT_DOUBLE_EQ(wf.file(wf.workflowOutputs()[0]).size.mb(), 173.46);
}

TEST(Dax, ExplicitControlEdges) {
  const Workflow wf = readDax(R"(<adag>
    <job id="A" runtime="1"/>
    <job id="B" runtime="1"/>
    <child ref="B"><parent ref="A"/></child>
  </adag>)");
  EXPECT_EQ(wf.task(1).parents, (std::vector<TaskId>{0}));
}

TEST(Dax, JobNameDefaultsFromId) {
  const Workflow wf = readDax(R"(<adag><job id="X" runtime="2"/></adag>)");
  EXPECT_EQ(wf.task(0).name, "X");
  EXPECT_EQ(wf.task(0).type, "X");
}

TEST(Dax, RoundTripFigure3) {
  const auto fig = test::makeFigure3Workflow();
  const std::string xml = writeDax(fig.wf);
  const Workflow back = readDax(xml);
  ASSERT_EQ(back.taskCount(), fig.wf.taskCount());
  ASSERT_EQ(back.fileCount(), fig.wf.fileCount());
  EXPECT_DOUBLE_EQ(back.totalRuntimeSeconds(), fig.wf.totalRuntimeSeconds());
  EXPECT_DOUBLE_EQ(back.totalFileBytes().value(),
                   fig.wf.totalFileBytes().value());
  for (TaskId t = 0; t < back.taskCount(); ++t) {
    EXPECT_EQ(back.task(t).parents, fig.wf.task(t).parents);
    EXPECT_EQ(back.task(t).level, fig.wf.task(t).level);
  }
  EXPECT_DOUBLE_EQ(criticalPathSeconds(back), criticalPathSeconds(fig.wf));
}

TEST(Dax, RoundTripPreservesControlDependencies) {
  Workflow wf("ctrl");
  const TaskId a = wf.addTask("a", "t", 1.0);
  const TaskId b = wf.addTask("b", "t", 2.0);
  wf.addControlDependency(a, b);
  wf.finalize();
  const Workflow back = readDax(writeDax(wf));
  EXPECT_EQ(back.task(1).parents, (std::vector<TaskId>{0}));
}

TEST(Dax, FileRoundTripThroughDisk) {
  const auto fig = test::makeFigure3Workflow();
  const std::string path = ::testing::TempDir() + "/fig3.dax";
  writeDaxFile(fig.wf, path);
  const Workflow back = readDaxFile(path);
  EXPECT_EQ(back.taskCount(), 7u);
  std::remove(path.c_str());
}

TEST(Dax, DeeplyNestedFileSurfacesTheTypedParseError) {
  const std::string path = ::testing::TempDir() + "/deep.dax";
  {
    std::ofstream out(path, std::ios::binary);
    out << "<adag name=\"deep\">";
    for (int i = 0; i < 100000; ++i) out << "<job>";
    for (int i = 0; i < 100000; ++i) out << "</job>";
    out << "</adag>";
  }
  try {
    readDaxFile(path);
    ADD_FAILURE() << "expected xml::ParseError";
  } catch (const xml::ParseError& e) {
    EXPECT_NE(std::string(e.what()).find("nesting deeper than"),
              std::string::npos);
  }
  std::remove(path.c_str());
}

TEST(Dax, MissingFileThrows) {
  EXPECT_THROW(readDaxFile("/nonexistent/nowhere.dax"), std::runtime_error);
}

TEST(Dax, WrongRootRejected) {
  EXPECT_THROW(readDax("<dag/>"), std::runtime_error);
}

TEST(Dax, DuplicateJobIdRejected) {
  EXPECT_THROW(readDax(R"(<adag>
    <job id="A" runtime="1"/><job id="A" runtime="1"/>
  </adag>)"),
               std::runtime_error);
}

TEST(Dax, UnknownLinkKindRejected) {
  EXPECT_THROW(readDax(R"(<adag><job id="A" runtime="1">
    <uses file="x" link="inout" size="1"/>
  </job></adag>)"),
               std::runtime_error);
}

TEST(Dax, ConflictingFileSizesRejected) {
  EXPECT_THROW(readDax(R"(<adag>
    <job id="A" runtime="1"><uses file="x" link="output" size="100"/></job>
    <job id="B" runtime="1"><uses file="x" link="input" size="999"/></job>
  </adag>)"),
               std::runtime_error);
}

TEST(Dax, BadNumbersRejected) {
  EXPECT_THROW(readDax(R"(<adag><job id="A" runtime="fast"/></adag>)"),
               std::runtime_error);
  EXPECT_THROW(readDax(R"(<adag><job id="A" runtime="1">
    <uses file="x" link="input" size="big"/>
  </job></adag>)"),
               std::runtime_error);
}

TEST(Dax, UnknownChildRefRejected) {
  EXPECT_THROW(readDax(R"(<adag>
    <job id="A" runtime="1"/>
    <child ref="Z"><parent ref="A"/></child>
  </adag>)"),
               std::runtime_error);
  EXPECT_THROW(readDax(R"(<adag>
    <job id="A" runtime="1"/>
    <child ref="A"><parent ref="Z"/></child>
  </adag>)"),
               std::runtime_error);
}

TEST(Dax, MissingRequiredAttributesRejected) {
  EXPECT_THROW(readDax(R"(<adag><job runtime="1"/></adag>)"),
               std::out_of_range);
  EXPECT_THROW(readDax(R"(<adag><job id="A"/></adag>)"), std::out_of_range);
}

TEST(Dax, TransferFlagMarksExplicitOutput) {
  // Pegasus-style transfer="true": a consumed file that is still a user
  // product (like the Montage mosaic, which mShrink also reads).
  const Workflow wf = readDax(R"(<adag>
    <job id="A" runtime="1">
      <uses file="mid" link="output" size="10" transfer="true"/>
    </job>
    <job id="B" runtime="1">
      <uses file="mid" link="input" size="10"/>
      <uses file="leaf" link="output" size="5"/>
    </job>
  </adag>)");
  const auto outs = wf.workflowOutputs();
  ASSERT_EQ(outs.size(), 2u);  // mid (flagged) and leaf
  EXPECT_TRUE(wf.file(outs[0]).explicitOutput ||
              wf.file(outs[1]).explicitOutput);
}

TEST(Dax, TransferFlagRoundTrips) {
  Workflow wf("flagged");
  const TaskId producer = wf.addTask("p", "p", 1.0);
  const FileId mid = wf.addFile("mid", Bytes(10.0));
  wf.addOutput(producer, mid);
  const TaskId consumer = wf.addTask("c", "c", 1.0);
  wf.addInput(consumer, mid);
  const FileId leaf = wf.addFile("leaf", Bytes(5.0));
  wf.addOutput(consumer, leaf);
  wf.markExplicitOutput(mid);
  wf.finalize();
  const Workflow back = readDax(writeDax(wf));
  EXPECT_EQ(back.workflowOutputs().size(), 2u);
}

TEST(Dax, ReleaseAttributeParsed) {
  const Workflow wf = readDax(
      R"(<adag><job id="A" runtime="1" release="99.5"/></adag>)");
  EXPECT_DOUBLE_EQ(wf.task(0).earliestStartSeconds, 99.5);
}

TEST(Dax, SharedInputFileFansOut) {
  // One external file read by two jobs: both become level 1, no edges.
  const Workflow wf = readDax(R"(<adag>
    <job id="A" runtime="1"><uses file="shared" link="input" size="10"/></job>
    <job id="B" runtime="1"><uses file="shared" link="input" size="10"/></job>
  </adag>)");
  EXPECT_TRUE(wf.task(0).parents.empty());
  EXPECT_TRUE(wf.task(1).parents.empty());
  EXPECT_EQ(wf.fileCount(), 1u);
  EXPECT_EQ(wf.file(0).consumers.size(), 2u);
}

}  // namespace
}  // namespace mcsim::dag
