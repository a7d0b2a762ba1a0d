#include "rl/replay.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <vector>

#include "common/error.hpp"

namespace adsec {
namespace {

// Resident set size of this process in bytes, or -1 where /proc is absent.
long resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  long pages = 0, resident = 0;
  if (!(statm >> pages >> resident)) return -1;
  return resident * sysconf(_SC_PAGESIZE);
}

void add_row(ReplayBuffer& buf, double x, int obs_dim, int act_dim) {
  const std::vector<double> obs(static_cast<std::size_t>(obs_dim), x);
  const std::vector<double> next(static_cast<std::size_t>(obs_dim), x + 0.5);
  const std::vector<double> act(static_cast<std::size_t>(act_dim), -x);
  buf.add(obs, act, 10.0 * x, next, static_cast<int>(x) % 3 == 0);
}

std::vector<std::uint8_t> saved(const ReplayBuffer& buf) {
  BinaryWriter w;
  buf.save(w);
  return w.bytes();
}

TEST(Replay, ValidatesConstruction) {
  EXPECT_THROW(ReplayBuffer(0, 1, 1), std::invalid_argument);
  EXPECT_THROW(ReplayBuffer(10, 0, 1), std::invalid_argument);
  EXPECT_THROW(ReplayBuffer(10, 1, 0), std::invalid_argument);
}

TEST(Replay, AddValidatesDims) {
  ReplayBuffer buf(10, 2, 1);
  const double o2[2] = {0, 0}, a1[1] = {0}, o1[1] = {0};
  EXPECT_THROW(buf.add(o1, a1, 0.0, o2, false), std::invalid_argument);
  EXPECT_THROW(buf.add(o2, o2, 0.0, o2, false), std::invalid_argument);
  buf.add(o2, a1, 0.0, o2, false);
  EXPECT_EQ(buf.size(), 1);
}

TEST(Replay, SampleEmptyThrows) {
  ReplayBuffer buf(10, 1, 1);
  Rng rng(1);
  EXPECT_THROW(buf.sample(4, rng), std::logic_error);
}

TEST(Replay, StoresAndSamplesRoundTrip) {
  ReplayBuffer buf(10, 2, 1);
  const double obs[2] = {1.5, -2.5}, act[1] = {0.25}, next[2] = {3.0, 4.0};
  buf.add(obs, act, 7.5, next, true);
  Rng rng(1);
  const Batch b = buf.sample(3, rng);
  EXPECT_EQ(b.obs.rows(), 3);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(b.obs(i, 0), 1.5);
    EXPECT_DOUBLE_EQ(b.obs(i, 1), -2.5);
    EXPECT_DOUBLE_EQ(b.act(i, 0), 0.25);
    EXPECT_DOUBLE_EQ(b.rew(i, 0), 7.5);
    EXPECT_DOUBLE_EQ(b.next_obs(i, 1), 4.0);
    EXPECT_DOUBLE_EQ(b.done(i, 0), 1.0);
  }
}

TEST(Replay, WrapsAroundAtCapacity) {
  ReplayBuffer buf(3, 1, 1);
  for (int i = 0; i < 7; ++i) {
    const double o[1] = {static_cast<double>(i)}, a[1] = {0.0};
    buf.add(o, a, 0.0, o, false);
  }
  EXPECT_EQ(buf.size(), 3);
  // Only values 4, 5, 6 remain; verify by sampling many times.
  Rng rng(2);
  const Batch b = buf.sample(64, rng);
  for (int i = 0; i < 64; ++i) {
    EXPECT_GE(b.obs(i, 0), 4.0);
    EXPECT_LE(b.obs(i, 0), 6.0);
  }
}

TEST(Replay, SampleCoversBuffer) {
  ReplayBuffer buf(8, 1, 1);
  for (int i = 0; i < 8; ++i) {
    const double o[1] = {static_cast<double>(i)}, a[1] = {0.0};
    buf.add(o, a, 0.0, o, false);
  }
  Rng rng(3);
  const Batch b = buf.sample(256, rng);
  bool seen[8] = {};
  for (int i = 0; i < 256; ++i) seen[static_cast<int>(b.obs(i, 0))] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

// The capacity is reserved, not written: a 60000 x 267 buffer (the zoo's
// pi_ori size, ~256 MB of rows) must not become resident when built.
TEST(Replay, ConstructionTouchesNoCapacity) {
  const long before = resident_bytes();
  if (before < 0) GTEST_SKIP() << "no /proc/self/statm";
  ReplayBuffer buf(60000, 267, 2);
  const long grown = resident_bytes() - before;
  EXPECT_LT(grown, 16L << 20) << "constructing grew the resident set by " << grown
                              << " bytes";
  add_row(buf, 1.0, 267, 2);
  EXPECT_EQ(buf.size(), 1);
}

// Save -> restore into a fresh buffer, for a partly filled ring and for
// wrapped ones: the bytes are the occupied rows in ring-slot order (the
// checkpoint layout), a re-save is byte-identical, and the restored ring
// keeps filling or overwriting exactly like the original.
TEST(Replay, SaveRestoreIntoFreshBufferKeepsBytesAndRing) {
  const int cap = 8, obs_dim = 3, act_dim = 2;
  for (const int adds : {5, 8, 13}) {
    ReplayBuffer src(cap, obs_dim, act_dim);
    for (int i = 0; i < adds; ++i) add_row(src, i, obs_dim, act_dim);

    const int size = std::min(adds, cap);
    std::vector<double> obs, act, rew, next, done;
    for (int slot = 0; slot < size; ++slot) {
      // Slot `slot` holds the latest add i with i % cap == slot.
      const int i = slot + cap * ((adds - 1 - slot) / cap);
      const double x = i;
      obs.insert(obs.end(), obs_dim, x);
      act.insert(act.end(), act_dim, -x);
      rew.push_back(10.0 * x);
      next.insert(next.end(), obs_dim, x + 0.5);
      done.push_back(i % 3 == 0 ? 1.0 : 0.0);
    }
    BinaryWriter want;
    want.write_string("replay");
    for (const int v : {cap, obs_dim, act_dim, size, adds % cap}) {
      want.write_u32(static_cast<std::uint32_t>(v));
    }
    for (const auto* rows : {&obs, &act, &rew, &next, &done}) want.write_f64_vector(*rows);
    ASSERT_EQ(saved(src), want.bytes()) << "adds=" << adds;

    ReplayBuffer dst(cap, obs_dim, act_dim);
    BinaryReader r(saved(src));
    dst.restore(r);
    EXPECT_EQ(dst.size(), size);
    EXPECT_EQ(saved(dst), saved(src)) << "adds=" << adds;
    for (int i = adds; i < adds + 6; ++i) {
      add_row(src, i, obs_dim, act_dim);
      add_row(dst, i, obs_dim, act_dim);
    }
    EXPECT_EQ(saved(dst), saved(src)) << "adds=" << adds << " then 6 more";
  }
}

// A ring that has not wrapped appends its next row at `size`, so a
// checkpoint whose head is elsewhere is corrupt.
TEST(Replay, RestoreRejectsUnwrappedRingWithHeadAwayFromSize) {
  BinaryWriter w;
  w.write_string("replay");
  for (const std::uint32_t v : {8u, 1u, 1u, 2u, 5u}) w.write_u32(v);  // size 2, head 5
  for (int k = 0; k < 5; ++k) w.write_f64_vector({0.5, 1.5});
  ReplayBuffer buf(8, 1, 1);
  BinaryReader r(w.bytes());
  try {
    buf.restore(r);
    FAIL() << "expected Error{Corrupt}";
  } catch (const Error& e) {
    EXPECT_EQ(e.code(), ErrorCode::Corrupt);
  }
}

TEST(Replay, ClearResets) {
  ReplayBuffer buf(4, 1, 1);
  const double o[1] = {1.0}, a[1] = {0.0};
  buf.add(o, a, 0.0, o, false);
  buf.clear();
  EXPECT_EQ(buf.size(), 0);
  Rng rng(1);
  EXPECT_THROW(buf.sample(1, rng), std::logic_error);
}

}  // namespace
}  // namespace adsec
