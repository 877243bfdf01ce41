#include "mcsim/sim/link.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <string>
#include <variant>
#include <vector>

#include "mcsim/obs/sink.hpp"
#include "mcsim/util/rng.hpp"

namespace mcsim::sim {
namespace {

/// Aborts a run that fires more calendar events than `budget`, so a link
/// that keeps rescheduling itself at the same instant fails a test instead
/// of hanging it.
class EventBudget final : public obs::Sink {
 public:
  explicit EventBudget(std::size_t budget) : budget_(budget) {}
  void onEvent(const obs::Event&) override {
    if (++fired_ > budget_)
      throw std::runtime_error("event budget exhausted: the run stalled");
  }
  bool accepts(obs::EventKind kind) const override {
    return kind == obs::EventKind::SimEventFired;
  }

 private:
  std::size_t budget_;
  std::size_t fired_ = 0;
};

class LinkTest : public ::testing::Test {
 protected:
  Simulator sim;
};

/// One line of a transfer log: 'P' progress, 'F' finished, 'H' handler.
std::string logLine(char what, Link::TransferId transfer, double time) {
  return what + std::to_string(transfer) + "@" + std::to_string(time);
}

/// Appends every TransferProgress and TransferFinished event to a log.
class TransferLog final : public obs::Sink {
 public:
  explicit TransferLog(std::vector<std::string>& log) : log_(log) {}
  void onEvent(const obs::Event& e) override {
    if (const auto* p = std::get_if<obs::TransferProgress>(&e.payload))
      log_.push_back(logLine('P', p->transfer, e.time));
    else if (const auto* f = std::get_if<obs::TransferFinished>(&e.payload))
      log_.push_back(logLine('F', f->transfer, e.time));
  }
  bool accepts(obs::EventKind kind) const override {
    return kind == obs::EventKind::TransferProgress ||
           kind == obs::EventKind::TransferFinished;
  }

 private:
  std::vector<std::string>& log_;
};

TEST_F(LinkTest, SingleTransferTakesSizeOverBandwidth) {
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0});  // 100 B/s
  double done = -1.0;
  link.startTransfer(Bytes(500.0), [&] { done = sim.now(); });
  sim.run();
  EXPECT_NEAR(done, 5.0, 1e-9);
  EXPECT_DOUBLE_EQ(link.totalBytesTransferred().value(), 500.0);
  EXPECT_EQ(link.completedTransfers(), 1u);
  EXPECT_EQ(link.activeTransfers(), 0u);
}

TEST_F(LinkTest, FairShareTwoEqualTransfersFinishTogether) {
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0,
                            .sharing = LinkSharing::FairShare});
  std::vector<double> done;
  link.startTransfer(Bytes(500.0), [&] { done.push_back(sim.now()); });
  link.startTransfer(Bytes(500.0), [&] { done.push_back(sim.now()); });
  sim.run();
  // Each gets 50 B/s: both finish at t=10 (total bytes / full bandwidth).
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 10.0, 1e-9);
  EXPECT_NEAR(done[1], 10.0, 1e-9);
}

TEST_F(LinkTest, FairShareBatchTimeEqualsTotalOverBandwidth) {
  // The stage-in property the engine relies on: N concurrent files take
  // sum(sizes)/B regardless of how sizes are distributed.
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 1000.0});
  double lastDone = 0.0;
  double total = 0.0;
  for (double size : {100.0, 900.0, 2500.0, 1500.0}) {
    total += size;
    link.startTransfer(Bytes(size), [&] { lastDone = sim.now(); });
  }
  sim.run();
  EXPECT_NEAR(lastDone, total / 1000.0, 1e-9);
}

TEST_F(LinkTest, FairShareUnequalSizesAnalytic) {
  // 300 B and 900 B at 100 B/s sharing fairly:
  //   phase 1: both at 50 B/s; small one finishes at t = 300/50 = 6
  //   phase 2: big one has 900-300=600 left at 100 B/s: t = 6 + 6 = 12.
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0});
  double small = -1.0, big = -1.0;
  link.startTransfer(Bytes(300.0), [&] { small = sim.now(); });
  link.startTransfer(Bytes(900.0), [&] { big = sim.now(); });
  sim.run();
  EXPECT_NEAR(small, 6.0, 1e-9);
  EXPECT_NEAR(big, 12.0, 1e-9);
}

TEST_F(LinkTest, LateArrivalSharesRemaining) {
  // t=0: A(1000) alone at 100 B/s.  t=5: A has 500 left; B(500) arrives.
  // Both at 50 B/s: A finishes at 5 + 10 = 15, B at 5 + 10 = 15.
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0});
  double aDone = -1.0, bDone = -1.0;
  link.startTransfer(Bytes(1000.0), [&] { aDone = sim.now(); });
  sim.schedule(5.0, [&] {
    link.startTransfer(Bytes(500.0), [&] { bDone = sim.now(); });
  });
  sim.run();
  EXPECT_NEAR(aDone, 15.0, 1e-9);
  EXPECT_NEAR(bDone, 15.0, 1e-9);
}

TEST_F(LinkTest, DedicatedTransfersDoNotContend) {
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0,
                            .sharing = LinkSharing::Dedicated});
  std::vector<double> done;
  link.startTransfer(Bytes(500.0), [&] { done.push_back(sim.now()); });
  link.startTransfer(Bytes(1000.0), [&] { done.push_back(sim.now()); });
  sim.run();
  ASSERT_EQ(done.size(), 2u);
  EXPECT_NEAR(done[0], 5.0, 1e-9);
  EXPECT_NEAR(done[1], 10.0, 1e-9);
}

TEST_F(LinkTest, ZeroByteTransferCompletesImmediately) {
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0});
  double done = -1.0;
  link.startTransfer(Bytes(0.0), [&] { done = sim.now(); });
  sim.run();
  EXPECT_DOUBLE_EQ(done, 0.0);
}

TEST_F(LinkTest, CompletionHandlerMayStartNextTransfer) {
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0});
  double secondDone = -1.0;
  link.startTransfer(Bytes(100.0), [&] {
    link.startTransfer(Bytes(200.0), [&] { secondDone = sim.now(); });
  });
  sim.run();
  EXPECT_NEAR(secondDone, 3.0, 1e-9);
  EXPECT_EQ(link.completedTransfers(), 2u);
}

TEST_F(LinkTest, IdOrderSurvivesSlotReuse) {
  // Transfer 1 is long; 2 and 3 are short, and their handlers start 4 and
  // 5, which reuse the slots 2 and 3 left.  The freelist hands slots back
  // last in, first out, so 5 sits in an earlier slot than 4.  At t = 10
  // transfers 1, 4 and 5 finish together: progress, finish events and
  // handlers must all come in transfer-id order, never in slot order.
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0,
                            .sharing = LinkSharing::Dedicated});
  std::vector<std::string> log;
  TransferLog sink(log);
  link.setObserver(&sink);
  const auto handler = [&](Link::TransferId id) {
    return [this, &log, id] { log.push_back(logLine('H', id, sim.now())); };
  };
  EXPECT_EQ(link.startTransfer(Bytes(1000.0), handler(1)), 1u);
  EXPECT_EQ(link.startTransfer(Bytes(100.0),
                               [&] {
                                 handler(2)();
                                 EXPECT_EQ(link.startTransfer(Bytes(900.0),
                                                              handler(4)),
                                           4u);
                               }),
            2u);
  EXPECT_EQ(link.startTransfer(Bytes(100.0),
                               [&] {
                                 handler(3)();
                                 EXPECT_EQ(link.startTransfer(Bytes(900.0),
                                                              handler(5)),
                                           5u);
                               }),
            3u);
  sim.run();

  const std::vector<std::string> expected = {
      logLine('P', 1, 1.0),  logLine('P', 2, 1.0),  logLine('P', 3, 1.0),
      logLine('F', 2, 1.0),  logLine('F', 3, 1.0),  logLine('H', 2, 1.0),
      logLine('H', 3, 1.0),  logLine('P', 1, 10.0), logLine('P', 4, 10.0),
      logLine('P', 5, 10.0), logLine('F', 1, 10.0), logLine('F', 4, 10.0),
      logLine('F', 5, 10.0), logLine('H', 1, 10.0), logLine('H', 4, 10.0),
      logLine('H', 5, 10.0)};
  EXPECT_EQ(log, expected);
  EXPECT_EQ(link.completedTransfers(), 5u);
  EXPECT_EQ(link.activeTransfers(), 0u);
}

TEST_F(LinkTest, SuspendStopsProgress) {
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0});
  double done = -1.0;
  link.startTransfer(Bytes(1000.0), [&] { done = sim.now(); });
  // Outage [4, 7): 3 seconds of no progress; completes at 10 + 3 = 13.
  sim.schedule(4.0, [&] { link.suspend(); });
  sim.schedule(7.0, [&] { link.resume(); });
  sim.run();
  EXPECT_NEAR(done, 13.0, 1e-9);
}

TEST_F(LinkTest, SuspendResumeIdempotent) {
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0});
  double done = -1.0;
  link.startTransfer(Bytes(100.0), [&] { done = sim.now(); });
  sim.schedule(0.5, [&] {
    link.suspend();
    link.suspend();  // no-op
    EXPECT_TRUE(link.suspended());
  });
  sim.schedule(1.0, [&] {
    link.resume();
    link.resume();  // no-op
    EXPECT_FALSE(link.suspended());
  });
  sim.run();
  EXPECT_NEAR(done, 1.5, 1e-9);
}

TEST_F(LinkTest, TransferStartedWhileSuspendedWaits) {
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0});
  double done = -1.0;
  link.suspend();
  link.startTransfer(Bytes(100.0), [&] { done = sim.now(); });
  sim.schedule(10.0, [&] { link.resume(); });
  sim.run();
  EXPECT_NEAR(done, 11.0, 1e-9);
}

TEST_F(LinkTest, ConfigDefaultsToFairShareIncremental) {
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0});
  EXPECT_EQ(link.sharing(), LinkSharing::FairShare);
}

struct Arrival {
  double time;
  double bytes;
};

/// Test oracle: the link's contract computed the plain way.  Between two
/// boundaries (an arrival, the outage's start or end, a completion) every
/// active transfer is credited rate·dt; the next completion is the active
/// transfer with the fewest bytes left.  `arrivals` must be sorted by time.
/// Returns each transfer's completion time.
std::vector<double> oracleCompletions(const std::vector<Arrival>& arrivals,
                                      double bandwidth, LinkSharing sharing,
                                      double downFrom, double downUntil) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> remaining(arrivals.size());
  std::vector<double> done(arrivals.size(), -1.0);
  std::vector<std::size_t> active;
  std::size_t next = 0;
  double now = 0.0;
  while (next < arrivals.size() || !active.empty()) {
    const bool down = now >= downFrom && now < downUntil;
    const double rate =
        down || active.empty() ? 0.0
        : sharing == LinkSharing::Dedicated
            ? bandwidth
            : bandwidth / static_cast<double>(active.size());
    const double outageEdge = now < downFrom    ? downFrom
                              : now < downUntil ? downUntil
                                                : kInf;
    const double boundary = std::min(
        next < arrivals.size() ? arrivals[next].time : kInf, outageEdge);
    std::size_t first = 0;  // position in `active` of the fewest bytes left
    for (std::size_t k = 1; k < active.size(); ++k)
      if (remaining[active[k]] < remaining[active[first]]) first = k;
    const bool completes =
        rate > 0.0 && now + remaining[active[first]] / rate <= boundary;
    const double until =
        completes ? now + remaining[active[first]] / rate : boundary;
    for (std::size_t i : active) remaining[i] -= rate * (until - now);
    now = until;
    if (completes) {
      done[active[first]] = now;
      active.erase(active.begin() + static_cast<std::ptrdiff_t>(first));
    }
    while (next < arrivals.size() && arrivals[next].time <= now) {
      remaining[next] = arrivals[next].bytes;
      active.push_back(next++);
    }
  }
  return done;
}

TEST(LinkOracle, CompletionTimesMatchUnderRandomArrivalsAndAnOutage) {
  // Heavy contention: ~100 kB transfers on a 10 kB/s link, arriving about
  // every 3.3 s, with the link down for 50 s in the middle.
  constexpr double kBandwidth = 1e4;
  constexpr double kDownFrom = 80.5;
  constexpr double kDownUntil = 130.25;
  for (LinkSharing sharing : {LinkSharing::FairShare, LinkSharing::Dedicated}) {
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
      SCOPED_TRACE("sharing " + std::to_string(static_cast<int>(sharing)) +
                   " seed " + std::to_string(seed));
      Rng rng(seed);
      std::vector<Arrival> arrivals(60);
      for (Arrival& a : arrivals)
        a = {rng.uniformReal(0.0, 200.0), rng.uniformReal(1e3, 2e5)};
      std::sort(arrivals.begin(), arrivals.end(),
                [](const Arrival& a, const Arrival& b) { return a.time < b.time; });
      const std::vector<double> expected = oracleCompletions(
          arrivals, kBandwidth, sharing, kDownFrom, kDownUntil);

      Simulator sim;
      Link link(sim, LinkConfig{.bandwidthBytesPerSec = kBandwidth,
                                .sharing = sharing});
      std::vector<double> actual(arrivals.size(), -1.0);
      for (std::size_t i = 0; i < arrivals.size(); ++i)
        sim.schedule(arrivals[i].time, [&, i] {
          link.startTransfer(Bytes(arrivals[i].bytes),
                             [&, i] { actual[i] = sim.now(); });
        });
      sim.schedule(kDownFrom, [&] { link.suspend(); });
      sim.schedule(kDownUntil, [&] { link.resume(); });
      sim.run();

      for (std::size_t i = 0; i < arrivals.size(); ++i) {
        ASSERT_GE(expected[i], 0.0) << "oracle left transfer " << i;
        const double scale =
            std::max({1.0, std::fabs(expected[i]), std::fabs(actual[i])});
        EXPECT_LE(std::fabs(actual[i] - expected[i]), 1e-6 * scale)
            << "transfer " << i << ": link " << actual[i] << ", oracle "
            << expected[i];
      }
    }
  }
}

TEST(LinkStall, SmallTransfersLateInARunComplete) {
  // Late in a run, rounding `now + delay` leaves a residue of about
  // rate * ulp(now) bytes — above the byte threshold for a small transfer
  // on the paper's 10 Mbps link near t = 4e5 s (or at 94.483 Mbps near
  // t = 3e4 s).  Its completion delay is then below the clock's
  // resolution, so unless the link counts it as finished the event
  // refires at the same instant forever.
  struct Case {
    double bytesPerSec;
    double start;
  };
  for (const Case c : {Case{1.25e6, 4e5}, Case{94.483e6 / 8.0, 3e4}}) {
    SCOPED_TRACE("rate " + std::to_string(c.bytesPerSec));
    Simulator sim;
    EventBudget budget(1'000'000);
    sim.setObserver(&budget);
    Link link(sim, LinkConfig{.bandwidthBytesPerSec = c.bytesPerSec,
                              .sharing = LinkSharing::Dedicated});
    constexpr int kTransfers = 1000;
    int completed = 0;
    for (int k = 0; k < kTransfers; ++k) {
      sim.schedule(c.start + 1.37 * k, [&link, &completed, k] {
        link.startTransfer(Bytes(1000.0 + 13.0 * k),
                           [&completed] { ++completed; });
      });
    }
    EXPECT_NO_THROW(sim.run());
    EXPECT_EQ(completed, kTransfers);
    EXPECT_EQ(link.activeTransfers(), 0u);
  }
}

TEST_F(LinkTest, InvalidArgumentsRejected) {
  EXPECT_THROW(Link(sim, LinkConfig{.bandwidthBytesPerSec = 0.0}),
               std::invalid_argument);
  EXPECT_THROW(Link(sim, LinkConfig{.bandwidthBytesPerSec = -5.0}),
               std::invalid_argument);
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 100.0});
  EXPECT_THROW(link.startTransfer(Bytes(-1.0), [] {}), std::invalid_argument);
  EXPECT_THROW(link.startTransfer(Bytes(1.0), EventFn{}),
               std::invalid_argument);
}

TEST_F(LinkTest, ManyConcurrentTransfersConserveBytes) {
  Link link(sim, LinkConfig{.bandwidthBytesPerSec = 1.25e6});
  const int n = 200;
  int completed = 0;
  double totalBytes = 0.0;
  for (int i = 0; i < n; ++i) {
    const double size = 1000.0 * (i + 1);
    totalBytes += size;
    link.startTransfer(Bytes(size), [&] { ++completed; });
  }
  sim.run();
  EXPECT_EQ(completed, n);
  EXPECT_NEAR(link.totalBytesTransferred().value(), totalBytes, 1.0);
  EXPECT_NEAR(sim.now(), totalBytes / 1.25e6, 1e-6);
}

}  // namespace
}  // namespace mcsim::sim
