// Checkpoint container format: capture/serialize/deserialize/apply
// roundtrips, and rejection of every class of malformed image (bad magic,
// bad version, truncation, checksum mismatch, section overruns, target
// mismatches on apply).
#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <span>
#include <type_traits>

#include "ckpt/snapshot.hpp"
#include "xasm/assembler.hpp"

namespace xpulp::ckpt {
namespace {

namespace r = xasm::reg;

xasm::Program counting_program() {
  xasm::Assembler a(0);
  a.li(r::t0, 4000);
  a.li(r::s0, 0x8000);
  auto loop = a.here();
  a.sw(r::t0, r::s0, 0);
  a.lw(r::a0, r::s0, 0);
  a.addi(r::t0, r::t0, -1);
  a.bne(r::t0, r::zero, loop);
  a.ecall();
  return a.finish();
}

/// A core stepped partway into the counting loop.
struct Fixture {
  mem::Memory mem{64 * 1024};
  sim::Core core{mem, sim::CoreConfig::extended()};

  explicit Fixture(int steps = 500) {
    const xasm::Program prog = counting_program();
    prog.load(mem);
    core.reset(prog.entry(), prog.base() + prog.size_bytes());
    for (int i = 0; i < steps && !core.halted(); ++i) core.step();
  }
};

TEST(Ckpt, Crc32KnownVector) {
  // The standard CRC-32 check value.
  const char* s = "123456789";
  EXPECT_EQ(crc32({reinterpret_cast<const u8*>(s), 9}), 0xcbf43926u);
}

TEST(Ckpt, SerializeDeserializeRoundtrip) {
  Fixture fx;
  const Snapshot snap = capture(fx.core, fx.mem);
  const std::vector<u8> bytes = serialize(snap);

  const Snapshot back = deserialize(bytes);
  ASSERT_EQ(back.cores.size(), 1u);
  EXPECT_FALSE(back.is_cluster());
  EXPECT_EQ(back.cores[0].pc, snap.cores[0].pc);
  EXPECT_EQ(back.cores[0].regs, snap.cores[0].regs);
  EXPECT_EQ(back.cores[0].perf.cycles, snap.cores[0].perf.cycles);
  EXPECT_EQ(back.cores[0].perf.instructions, snap.cores[0].perf.instructions);
  EXPECT_EQ(back.mem.bytes, snap.mem.bytes);
  EXPECT_EQ(back.mem.stats.loads, snap.mem.stats.loads);
  EXPECT_EQ(back.mem.stats.stores, snap.mem.stats.stores);

  // Re-serializing the parsed snapshot reproduces the image bit-for-bit.
  EXPECT_EQ(serialize(back), bytes);
}

TEST(Ckpt, ApplyRestoresExactState) {
  Fixture fx;
  const Snapshot snap = capture(fx.core, fx.mem);
  const u64 cycles_at_ckpt = fx.core.perf().cycles;

  // Run further, then restore through the full binary path.
  for (int i = 0; i < 300; ++i) fx.core.step();
  EXPECT_NE(fx.core.perf().cycles, cycles_at_ckpt);

  const Snapshot back = deserialize(serialize(snap));
  apply(back, fx.core, fx.mem);
  EXPECT_EQ(fx.core.perf().cycles, cycles_at_ckpt);
  EXPECT_EQ(fx.core.pc(), snap.cores[0].pc);
  EXPECT_EQ(fx.core.reg(5), snap.cores[0].regs[5]);  // t0 loop counter
}

TEST(Ckpt, RejectsBadMagic) {
  Fixture fx;
  std::vector<u8> bytes = serialize(capture(fx.core, fx.mem));
  bytes[0] ^= 0xff;
  // Checksum catches it first unless fixed up; both paths must throw.
  EXPECT_THROW(deserialize(bytes), CkptError);
  // Fix the CRC so only the magic is wrong.
  const u32 crc = crc32({bytes.data(), bytes.size() - 4});
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, 4);
  EXPECT_THROW(
      {
        try {
          deserialize(bytes);
        } catch (const CkptError& e) {
          EXPECT_NE(std::string(e.what()).find("magic"), std::string::npos);
          throw;
        }
      },
      CkptError);
}

TEST(Ckpt, RejectsUnsupportedVersion) {
  Fixture fx;
  std::vector<u8> bytes = serialize(capture(fx.core, fx.mem));
  const u16 bad_version = kFormatVersion + 7;
  std::memcpy(bytes.data() + 4, &bad_version, 2);
  const u32 crc = crc32({bytes.data(), bytes.size() - 4});
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, 4);
  EXPECT_THROW(
      {
        try {
          deserialize(bytes);
        } catch (const CkptError& e) {
          EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
          throw;
        }
      },
      CkptError);
}

TEST(Ckpt, RejectsCorruptionAnywhere) {
  Fixture fx;
  const std::vector<u8> good = serialize(capture(fx.core, fx.mem));
  // Flip one byte at a spread of offsets; the CRC trailer must catch every
  // one of them.
  for (const size_t at : {size_t{9}, good.size() / 3, good.size() / 2,
                          good.size() - 5, good.size() - 1}) {
    std::vector<u8> bad = good;
    bad[at] ^= 0x40;
    EXPECT_THROW(deserialize(bad), CkptError) << "offset " << at;
  }
}

TEST(Ckpt, RejectsTruncation) {
  Fixture fx;
  const std::vector<u8> good = serialize(capture(fx.core, fx.mem));
  for (const size_t keep : {size_t{0}, size_t{3}, size_t{11}, good.size() / 2,
                            good.size() - 1}) {
    const std::vector<u8> bad(good.begin(),
                              good.begin() + static_cast<long>(keep));
    EXPECT_THROW(deserialize(bad), CkptError) << "kept " << keep;
  }
}

TEST(Ckpt, SkipsUnknownSections) {
  // A newer writer may append sections this reader does not know; they must
  // be skipped, not rejected.
  Fixture fx;
  std::vector<u8> bytes = serialize(capture(fx.core, fx.mem));
  bytes.resize(bytes.size() - 4);  // drop CRC
  const u32 tag = 0x21515151;      // "QQQ!"
  const u64 len = 3;
  const u8 payload[3] = {1, 2, 3};
  bytes.insert(bytes.end(), reinterpret_cast<const u8*>(&tag),
               reinterpret_cast<const u8*>(&tag) + 4);
  bytes.insert(bytes.end(), reinterpret_cast<const u8*>(&len),
               reinterpret_cast<const u8*>(&len) + 8);
  bytes.insert(bytes.end(), payload, payload + 3);
  const u32 crc = crc32({bytes.data(), bytes.size()});
  bytes.insert(bytes.end(), reinterpret_cast<const u8*>(&crc),
               reinterpret_cast<const u8*>(&crc) + 4);
  const Snapshot back = deserialize(bytes);
  EXPECT_EQ(back.cores.size(), 1u);
}

TEST(Ckpt, ApplyRejectsMismatchedTargets) {
  Fixture fx;
  const Snapshot snap = capture(fx.core, fx.mem);

  // Memory size mismatch.
  mem::Memory other_mem(32 * 1024);
  sim::Core other_core(other_mem, sim::CoreConfig::extended());
  EXPECT_THROW(apply(snap, other_core, other_mem), CkptError);

  // Single-core snapshot into a cluster and vice versa.
  cluster::ClusterConfig ccfg;
  ccfg.num_cores = 2;
  cluster::Cluster cl(ccfg);
  EXPECT_THROW(apply(snap, cl), CkptError);
  const Snapshot clsnap = capture(cl);
  EXPECT_THROW(apply(clsnap, fx.core, fx.mem), CkptError);

  // Cluster snapshot into a cluster with a different core count.
  cluster::ClusterConfig ccfg4;
  ccfg4.num_cores = 4;
  cluster::Cluster cl4(ccfg4);
  EXPECT_THROW(apply(clsnap, cl4), SimError);
}

TEST(Ckpt, ClusterRoundtripCarriesArbiter) {
  cluster::ClusterConfig ccfg;
  ccfg.num_cores = 2;
  cluster::Cluster cl(ccfg);
  const Snapshot snap = capture(cl);
  ASSERT_TRUE(snap.is_cluster());
  EXPECT_EQ(snap.cores.size(), 2u);
  EXPECT_EQ(snap.arbiter->last_cycle.size(), 2u * cluster::kBanksPerCore);

  const Snapshot back = deserialize(serialize(snap));
  ASSERT_TRUE(back.is_cluster());
  EXPECT_EQ(back.arbiter->last_cycle, snap.arbiter->last_cycle);
  EXPECT_EQ(back.arbiter->last_core, snap.arbiter->last_core);
  EXPECT_EQ(serialize(back), serialize(snap));
}

TEST(Ckpt, FileSaveLoadRoundtrip) {
  Fixture fx;
  const Snapshot snap = capture(fx.core, fx.mem);
  const std::string path = ::testing::TempDir() + "/xckpt_roundtrip.xckp";
  save_file(snap, path);
  const Snapshot back = load_file(path);
  EXPECT_EQ(serialize(back), serialize(snap));
  EXPECT_THROW(load_file(path + ".does-not-exist"), CkptError);
}

/// Fill every 8-byte counter slot of `s` with a distinct nonzero value
/// taken from `next`, without naming a single field: a layout pin must not
/// share its field list with the codec it pins.
template <typename S>
void fill_slots(S& s, u64& next) {
  static_assert(std::is_trivially_copyable_v<S>);
  static_assert(sizeof(S) % sizeof(u64) == 0);
  std::array<u64, sizeof(S) / sizeof(u64)> slots;
  for (u64& v : slots) v = next++ * 0x0101010101010101ull;
  std::memcpy(static_cast<void*>(&s), slots.data(), sizeof(S));
}

TEST(Ckpt, ImageLayoutIsPinned) {
  // Every counter slot holds a distinct value, so swapping, dropping or
  // reordering any field in the CORE/MEM payloads moves the checksum.
  Snapshot s;
  u64 next = 1;
  for (int c = 0; c < 2; ++c) {
    sim::CoreState cs;
    for (unsigned i = 0; i < 32; ++i) cs.regs[i] = 0x1000u * c + i + 1;
    cs.pc = 0x4000u + 4u * c;
    cs.hwl_start = {0x100u, 0x200u};
    cs.hwl_end = {0x140u, 0x240u};
    cs.hwl_count = {7u, 9u};
    cs.last_load_rd = 11;
    cs.last_load_data = 0xdeadbeefu;
    cs.halt = sim::HaltReason::kEcall;
    cs.mscratch = 0x5a5a5a5au;
    cs.mpc = 2;
    fill_slots(cs.perf, next);
    fill_slots(cs.dotp.activity, next);
    cs.dotp.last_a = {1u, 2u, 3u, 4u};
    cs.dotp.last_b = {5u, 6u, 7u, 8u};
    s.cores.push_back(cs);
  }
  fill_slots(s.mem.stats, next);
  s.mem.access_counter = 12345;
  s.mem.contention_period = 3;
  s.mem.bytes.resize(64);
  for (size_t i = 0; i < s.mem.bytes.size(); ++i) {
    s.mem.bytes[i] = static_cast<u8>(i * 7 + 1);
  }
  const std::vector<u8> image = serialize(s);
  // The checksum of the body, not of the whole image: a CRC-32 over a
  // message plus its own appended CRC is the same constant for any message.
  EXPECT_EQ(crc32(std::span(image).first(image.size() - 4)), 0x3940e72au);
  EXPECT_EQ(serialize(deserialize(image)), image);
}

TEST(Ckpt, EmptySnapshotRejected) {
  Snapshot s;
  EXPECT_THROW(serialize(s), CkptError);
}

}  // namespace
}  // namespace xpulp::ckpt
