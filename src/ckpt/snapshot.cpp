#include "ckpt/snapshot.hpp"

#include <array>
#include <cstring>
#include <fstream>

namespace xpulp::ckpt {

namespace {

// Section tags, little-endian ASCII.
constexpr u32 kTagMeta = 0x4154454d;  // "META"
constexpr u32 kTagCore = 0x45524f43;  // "CORE"
constexpr u32 kTagMem = 0x204d454d;   // "MEM "
constexpr u32 kTagClus = 0x53554c43;  // "CLUS"

constexpr u16 kFlagCluster = 1u << 0;

// ---- Little-endian byte stream primitives ----

class Writer {
 public:
  void u8v(u8 v) { buf_.push_back(v); }
  void u16v(u16 v) { put(v); }
  void u32v(u32 v) { put(v); }
  void u64v(u64 v) { put(v); }
  /// Every slot of a counter struct, in field-list order.
  template <CounterStruct S>
  void counters(const S& s) {
    for_each_counter([this](const char*, u64 v) { u64v(v); }, s);
  }
  void bytes(std::span<const u8> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  /// Begin a tagged section; returns the patch position for its length.
  size_t begin_section(u32 tag) {
    u32v(tag);
    const size_t pos = buf_.size();
    u64v(0);  // length placeholder
    return pos;
  }
  void end_section(size_t pos) {
    const u64 len = buf_.size() - (pos + 8);
    std::memcpy(&buf_[pos], &len, 8);
  }

  std::vector<u8> take() && { return std::move(buf_); }
  const std::vector<u8>& data() const { return buf_; }

 private:
  template <typename T>
  void put(T v) {
    u8 tmp[sizeof(T)];
    std::memcpy(tmp, &v, sizeof(T));  // host is little-endian (RV32 sim)
    buf_.insert(buf_.end(), tmp, tmp + sizeof(T));
  }

  std::vector<u8> buf_;
};

class Reader {
 public:
  explicit Reader(std::span<const u8> b) : buf_(b) {}

  u8 u8v() { return take<u8>(); }
  u16 u16v() { return take<u16>(); }
  u32 u32v() { return take<u32>(); }
  u64 u64v() { return take<u64>(); }
  template <CounterStruct S>
  void counters(S& s) {
    for_each_counter([this](const char*, u64& v) { v = u64v(); }, s);
  }
  void bytes(std::span<u8> out) {
    need(out.size());
    std::memcpy(out.data(), buf_.data() + pos_, out.size());
    pos_ += out.size();
  }

  size_t remaining() const { return buf_.size() - pos_; }
  size_t pos() const { return pos_; }
  void skip(size_t n) {
    need(n);
    pos_ += n;
  }

 private:
  template <typename T>
  T take() {
    need(sizeof(T));
    T v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  void need(size_t n) const {
    if (buf_.size() - pos_ < n) throw CkptError("truncated checkpoint image");
  }

  std::span<const u8> buf_;
  size_t pos_ = 0;
};

// ---- Struct codecs ----

void write_core(Writer& w, const sim::CoreState& s) {
  for (u32 r : s.regs) w.u32v(r);
  w.u32v(s.pc);
  for (addr_t a : s.hwl_start) w.u32v(a);
  for (addr_t a : s.hwl_end) w.u32v(a);
  for (u32 c : s.hwl_count) w.u32v(c);
  w.u8v(s.last_load_rd);
  w.u32v(s.last_load_data);
  w.u8v(static_cast<u8>(s.halt));
  w.u32v(s.mscratch);
  w.u32v(s.mpc);

  w.counters(s.perf);
  w.counters(s.dotp.activity);
  for (u32 v : s.dotp.last_a) w.u32v(v);
  for (u32 v : s.dotp.last_b) w.u32v(v);
}

sim::CoreState read_core(Reader& r) {
  sim::CoreState s;
  for (u32& reg : s.regs) reg = r.u32v();
  s.pc = r.u32v();
  for (addr_t& a : s.hwl_start) a = r.u32v();
  for (addr_t& a : s.hwl_end) a = r.u32v();
  for (u32& c : s.hwl_count) c = r.u32v();
  s.last_load_rd = r.u8v();
  s.last_load_data = r.u32v();
  const u8 halt = r.u8v();
  if (halt > static_cast<u8>(sim::HaltReason::kInstrLimit)) {
    throw CkptError("invalid halt reason in core section");
  }
  s.halt = static_cast<sim::HaltReason>(halt);
  s.mscratch = r.u32v();
  s.mpc = r.u32v();

  r.counters(s.perf);
  r.counters(s.dotp.activity);
  for (u32& v : s.dotp.last_a) v = r.u32v();
  for (u32& v : s.dotp.last_b) v = r.u32v();
  return s;
}

void write_mem(Writer& w, const MemSnapshot& m) {
  w.counters(m.stats);
  w.u64v(m.access_counter);
  w.u32v(m.contention_period);
  w.u64v(m.bytes.size());
  w.bytes(m.bytes);
}

MemSnapshot read_mem(Reader& r) {
  MemSnapshot m;
  r.counters(m.stats);
  m.access_counter = r.u64v();
  m.contention_period = r.u32v();
  const u64 n = r.u64v();
  if (n > r.remaining()) throw CkptError("memory image length exceeds section");
  m.bytes.resize(static_cast<size_t>(n));
  r.bytes(m.bytes);
  return m;
}

void write_arbiter(Writer& w, const cluster::BankArbiterState& a) {
  if (a.last_cycle.size() != a.last_core.size()) {
    throw CkptError("inconsistent arbiter state");
  }
  w.u32v(static_cast<u32>(a.last_cycle.size()));
  for (cycles_t c : a.last_cycle) w.u64v(c);
  for (int c : a.last_core) w.u32v(static_cast<u32>(c));
  w.u64v(a.conflicts);
  w.u64v(a.accesses);
}

cluster::BankArbiterState read_arbiter(Reader& r) {
  cluster::BankArbiterState a;
  const u32 banks = r.u32v();
  if (static_cast<u64>(banks) * 12 > r.remaining()) {
    throw CkptError("arbiter bank count exceeds section");
  }
  a.last_cycle.resize(banks);
  a.last_core.resize(banks);
  for (cycles_t& c : a.last_cycle) c = r.u64v();
  for (int& c : a.last_core) c = static_cast<int>(r.u32v());
  a.conflicts = r.u64v();
  a.accesses = r.u64v();
  return a;
}

}  // namespace

// ---- CRC-32 (IEEE 802.3, reflected) ----

u32 crc32(std::span<const u8> bytes) {
  static const std::array<u32, 256> table = [] {
    std::array<u32, 256> t{};
    for (u32 i = 0; i < 256; ++i) {
      u32 c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  u32 crc = 0xffffffffu;
  for (u8 b : bytes) crc = table[(crc ^ b) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

// ---- Capture / apply ----

Snapshot capture(const sim::Core& core, const mem::Memory& mem) {
  Snapshot s;
  s.cores.push_back(core.save_state());
  s.mem.bytes.resize(mem.size());
  mem.read_block(0, s.mem.bytes);
  s.mem.stats = mem.stats();
  s.mem.access_counter = mem.access_counter();
  s.mem.contention_period = mem.contention_period();
  return s;
}

Snapshot capture(const cluster::Cluster& cl) {
  Snapshot s;
  const cluster::ClusterState cs = cl.save_state();
  s.cores = cs.cores;
  s.arbiter = cs.arbiter;
  const mem::Memory& mem = cl.memory();
  s.mem.bytes.resize(mem.size());
  mem.read_block(0, s.mem.bytes);
  s.mem.stats = mem.stats();
  s.mem.access_counter = mem.access_counter();
  s.mem.contention_period = mem.contention_period();
  return s;
}

namespace {

void apply_mem(const MemSnapshot& m, mem::Memory& mem) {
  if (m.bytes.size() != mem.size()) {
    throw CkptError("snapshot memory size (" + std::to_string(m.bytes.size()) +
                    ") does not match target (" + std::to_string(mem.size()) +
                    ")");
  }
  mem.write_block(0, m.bytes);
  mem.set_stats(m.stats);
  mem.set_access_counter(m.access_counter);
  mem.set_contention_period(m.contention_period);
}

}  // namespace

void apply(const Snapshot& s, sim::Core& core, mem::Memory& mem) {
  if (s.is_cluster()) {
    throw CkptError("cluster snapshot applied to a single core");
  }
  if (s.cores.size() != 1) {
    throw CkptError("single-core snapshot must hold exactly one core");
  }
  apply_mem(s.mem, mem);
  core.restore_state(s.cores[0]);
  core.invalidate_decode_cache();
}

void apply(const Snapshot& s, cluster::Cluster& cl) {
  if (!s.is_cluster()) {
    throw CkptError("single-core snapshot applied to a cluster");
  }
  apply_mem(s.mem, cl.memory());
  // restore_state validates core/bank counts and invalidates decode caches
  // (required: the code image may have changed underneath the cores).
  cl.restore_state(cluster::ClusterState{s.cores, *s.arbiter});
}

// ---- Serialization ----

std::vector<u8> serialize(const Snapshot& s) {
  if (s.cores.empty()) throw CkptError("cannot serialize an empty snapshot");
  Writer w;
  w.u32v(kMagic);
  w.u16v(kFormatVersion);
  w.u16v(s.is_cluster() ? kFlagCluster : 0);

  size_t sec = w.begin_section(kTagMeta);
  w.u32v(static_cast<u32>(s.cores.size()));
  w.u64v(s.mem.bytes.size());
  w.end_section(sec);

  for (const sim::CoreState& c : s.cores) {
    sec = w.begin_section(kTagCore);
    write_core(w, c);
    w.end_section(sec);
  }

  sec = w.begin_section(kTagMem);
  write_mem(w, s.mem);
  w.end_section(sec);

  if (s.is_cluster()) {
    sec = w.begin_section(kTagClus);
    write_arbiter(w, *s.arbiter);
    w.end_section(sec);
  }

  const u32 crc = crc32(w.data());
  w.u32v(crc);
  return std::move(w).take();
}

Snapshot deserialize(std::span<const u8> bytes) {
  if (bytes.size() < 12) throw CkptError("image too small for header");
  // Checksum trailer covers everything before it.
  u32 stored_crc;
  std::memcpy(&stored_crc, bytes.data() + bytes.size() - 4, 4);
  const auto body = bytes.first(bytes.size() - 4);
  if (crc32(body) != stored_crc) throw CkptError("checksum mismatch");

  Reader r(body);
  if (r.u32v() != kMagic) throw CkptError("bad magic (not a checkpoint)");
  const u16 version = r.u16v();
  if (version != kFormatVersion) {
    throw CkptError("unsupported format version " + std::to_string(version));
  }
  const u16 flags = r.u16v();

  Snapshot s;
  bool have_meta = false, have_mem = false, have_clus = false;
  u32 meta_cores = 0;

  while (r.remaining() > 0) {
    const u32 tag = r.u32v();
    const u64 len = r.u64v();
    if (len > r.remaining()) throw CkptError("section length exceeds image");
    const size_t end = r.pos() + static_cast<size_t>(len);

    switch (tag) {
      case kTagMeta:
        meta_cores = r.u32v();
        (void)r.u64v();  // declared memory size; MEM section is authoritative
        have_meta = true;
        break;
      case kTagCore:
        s.cores.push_back(read_core(r));
        break;
      case kTagMem:
        s.mem = read_mem(r);
        have_mem = true;
        break;
      case kTagClus:
        s.arbiter = read_arbiter(r);
        have_clus = true;
        break;
      default:
        // Unknown section from a newer writer of the same version line:
        // skip it. Mandatory structure is enforced below.
        break;
    }
    if (r.pos() > end) throw CkptError("section payload overran its length");
    r.skip(end - r.pos());
  }

  if (!have_meta) throw CkptError("missing META section");
  if (!have_mem) throw CkptError("missing MEM section");
  if (s.cores.empty()) throw CkptError("missing CORE section");
  if (s.cores.size() != meta_cores) {
    throw CkptError("core count disagrees with META");
  }
  const bool flag_cluster = (flags & kFlagCluster) != 0;
  if (flag_cluster != have_clus) {
    throw CkptError("cluster flag disagrees with CLUS section presence");
  }
  return s;
}

void save_file(const Snapshot& s, const std::string& path) {
  const std::vector<u8> bytes = serialize(s);
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  if (!f) throw CkptError("cannot open " + path + " for writing");
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (!f) throw CkptError("short write to " + path);
}

Snapshot load_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary | std::ios::ate);
  if (!f) throw CkptError("cannot open " + path);
  const std::streamsize n = f.tellg();
  f.seekg(0);
  std::vector<u8> bytes(static_cast<size_t>(n));
  f.read(reinterpret_cast<char*>(bytes.data()), n);
  if (!f) throw CkptError("short read from " + path);
  return deserialize(bytes);
}

}  // namespace xpulp::ckpt
