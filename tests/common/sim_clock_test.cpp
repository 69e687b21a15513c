#include "common/sim_clock.hpp"

#include <gtest/gtest.h>

#include <latch>
#include <string>
#include <thread>

#include "common/log.hpp"

namespace gridlb {
namespace {

struct SimClockTest : ::testing::Test {
  void SetUp() override { simclock::reset(); }
  void TearDown() override { simclock::reset(); }
};

TEST_F(SimClockTest, UnpublishedThreadHasNoTime) {
  EXPECT_EQ(simclock::thread_now(), kNoTime);
  EXPECT_EQ(simclock::now(), kNoTime);
  simclock::publish(3.5);
  EXPECT_EQ(simclock::thread_now(), 3.5);
  EXPECT_EQ(simclock::now(), 3.5);
  std::thread other([] { EXPECT_EQ(simclock::thread_now(), kNoTime); });
  other.join();
}

TEST_F(SimClockTest, EachThreadReadsItsOwnPublishedTime) {
  // Both threads publish before either reads, so the process-wide clock
  // holds only one of the two values while each thread still sees its own.
  std::latch published(2);
  SimTime seen_a = kNoTime;
  SimTime seen_b = kNoTime;
  std::thread a([&] {
    simclock::publish(46.083);
    published.arrive_and_wait();
    seen_a = simclock::thread_now();
  });
  std::thread b([&] {
    simclock::publish(46.050);
    published.arrive_and_wait();
    seen_b = simclock::thread_now();
  });
  a.join();
  b.join();
  EXPECT_EQ(seen_a, 46.083);
  EXPECT_EQ(seen_b, 46.050);
  const SimTime shared = simclock::now();
  EXPECT_TRUE(shared == 46.083 || shared == 46.050);
}

TEST_F(SimClockTest, LogLinesCarryTheWritingThreadsClock) {
  const log::Level saved = log::level();
  log::set_level(log::Level::kWarn);
  std::latch published(2);
  ::testing::internal::CaptureStderr();
  std::thread a([&] {
    simclock::publish(46.083);
    published.arrive_and_wait();
    log::warn("from a");
  });
  std::thread b([&] {
    simclock::publish(46.050);
    published.arrive_and_wait();
  });
  a.join();
  b.join();
  log::warn("from main");
  const std::string err = ::testing::internal::GetCapturedStderr();
  log::set_level(saved);
  EXPECT_NE(err.find("t=46.083] from a"), std::string::npos) << err;
  EXPECT_NE(err.find("t=-] from main"), std::string::npos) << err;
}

}  // namespace
}  // namespace gridlb
