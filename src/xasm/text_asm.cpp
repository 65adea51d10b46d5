#include "xasm/text_asm.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "isa/decoder.hpp"
#include "isa/disasm.hpp"
#include "isa/encoding.hpp"
#include "isa/isa_table.hpp"

namespace xpulp::xasm {

namespace {

using isa::EncShape;
using isa::Instr;
using isa::IsaTableEntry;

std::string_view trim(std::string_view s) {
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.front()))) {
    s.remove_prefix(1);
  }
  while (!s.empty() && std::isspace(static_cast<unsigned char>(s.back()))) {
    s.remove_suffix(1);
  }
  return s;
}

std::string lower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return out;
}

/// Split the operand field on top-level commas (parentheses kept intact).
std::vector<std::string_view> split_operands(std::string_view s) {
  std::vector<std::string_view> out;
  size_t start = 0;
  int depth = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '(') ++depth;
    if (s[i] == ')') --depth;
    if (s[i] == ',' && depth == 0) {
      out.push_back(trim(s.substr(start, i - start)));
      start = i + 1;
    }
  }
  const auto last = trim(s.substr(start));
  if (!last.empty()) out.push_back(last);
  return out;
}

std::optional<i64> parse_int(std::string_view tok) {
  tok = trim(tok);
  bool neg = false;
  if (!tok.empty() && (tok.front() == '-' || tok.front() == '+')) {
    neg = tok.front() == '-';
    tok.remove_prefix(1);
  }
  if (tok.empty()) return std::nullopt;
  int bases = 10;
  if (tok.size() > 2 && tok[0] == '0' && (tok[1] == 'x' || tok[1] == 'X')) {
    tok.remove_prefix(2);
    bases = 16;
  }
  u64 v = 0;
  const auto [p, ec] =
      std::from_chars(tok.data(), tok.data() + tok.size(), v, bases);
  if (ec != std::errc{} || p != tok.data() + tok.size()) return std::nullopt;
  if (v > static_cast<u64>(std::numeric_limits<i64>::max())) {
    return std::nullopt;
  }
  const i64 sv = static_cast<i64>(v);
  return neg ? -sv : sv;
}

struct Ctx {
  Assembler& a;
  unsigned line;
  std::map<std::string, Assembler::Label, std::less<>>& labels;
  std::string mnem;  // lower-cased

  [[noreturn]] void fail(const std::string& what) const {
    throw TextAsmError(line, what);
  }

  void need(const std::vector<std::string_view>& ops, size_t n) const {
    if (ops.size() != n) {
      fail("'" + mnem + "' expects " + std::to_string(n) + " operands, got " +
           std::to_string(ops.size()));
    }
  }

  u8 reg(std::string_view tok) const {
    try {
      return parse_register(tok);
    } catch (const AsmError& e) {
      fail(e.what());
    }
  }

  /// An integer operand in [lo, hi].
  i64 ranged(std::string_view tok, i64 lo, i64 hi, const char* what) const {
    const auto v = parse_int(tok);
    if (!v) fail("expected an integer, got '" + std::string(tok) + "'");
    if (*v < lo || *v > hi) {
      fail(std::string(what) + " '" + std::string(trim(tok)) +
           "' out of range [" + std::to_string(lo) + ", " +
           std::to_string(hi) + "]");
    }
    return *v;
  }

  /// A 32-bit immediate, signed or written as an unsigned bit pattern.
  i32 imm(std::string_view tok) const {
    return static_cast<i32>(static_cast<u32>(
        ranged(tok, std::numeric_limits<i32>::min(),
               std::numeric_limits<u32>::max(), "integer")));
  }

  /// Hardware-loop index: "x0" / "x1" or 0 / 1.
  u8 loop(std::string_view tok) const {
    const std::string t = lower(trim(tok));
    if (t == "x0" || t == "0") return 0;
    if (t == "x1" || t == "1") return 1;
    fail("hardware-loop index must be 0 or 1");
  }

  /// Branch/jump/loop target: a named label (forward references allowed).
  Assembler::Label target(std::string_view tok) {
    if (parse_int(tok)) {
      fail("numeric branch targets are not supported; use a label");
    }
    const std::string key(tok);
    auto it = labels.find(key);
    if (it == labels.end()) {
      it = labels.emplace(key, a.new_label()).first;
    }
    return it->second;
  }

  /// Address operand "off(base)", written "off(base!)" exactly when the
  /// mnemonic post-increments; returns the offset token and the base.
  std::pair<std::string_view, u8> addr(std::string_view tok, bool post) const {
    const size_t open = tok.find('(');
    const size_t close = tok.rfind(')');
    if (open == std::string_view::npos || close == std::string_view::npos ||
        close < open) {
      fail("expected 'off(reg)' address operand, got '" + std::string(tok) +
           "'");
    }
    std::string_view inner = trim(tok.substr(open + 1, close - open - 1));
    const bool bang = !inner.empty() && inner.back() == '!';
    if (bang != post) {
      fail(post ? "'" + mnem + "' post-increments: write 'off(reg!)'"
                : "'" + mnem + "' does not post-increment its base");
    }
    if (bang) inner = trim(inner.substr(0, inner.size() - 1));
    return {trim(tok.substr(0, open)), reg(inner)};
  }
};

/// Pseudo-instructions; false if the mnemonic is not one.
bool emit_pseudo(Ctx& c, const std::vector<std::string_view>& ops) {
  Assembler& a = c.a;
  const std::string& m = c.mnem;
  if (m == "nop" || m == "fence") {  // single hart: fence is a nop
    c.need(ops, 0);
    a.nop();
  } else if (m == "halt") {
    c.need(ops, 0);
    a.halt();
  } else if (m == "ret") {
    c.need(ops, 0);
    a.ret();
  } else if (m == "li") {
    c.need(ops, 2);
    a.li(c.reg(ops[0]), c.imm(ops[1]));
  } else if (m == "mv") {
    c.need(ops, 2);
    a.mv(c.reg(ops[0]), c.reg(ops[1]));
  } else if (m == "j") {
    c.need(ops, 1);
    a.j(c.target(ops[0]));
  } else {
    return false;
  }
  return true;
}

/// Table entry by assembly name: mnemonic plus format suffix.
const IsaTableEntry* find_entry(std::string_view name) {
  static const auto index = [] {
    std::map<std::string, const IsaTableEntry*, std::less<>> m;
    for (const IsaTableEntry& e : isa::isa_table()) {
      m.emplace(std::string(isa::mnemonic_name(e.op)) +
                    std::string(isa::simd_fmt_suffix(e.fmt)),
                &e);
    }
    return m;
  }();
  const auto it = index.find(name);
  return it == index.end() ? nullptr : it->second;
}

struct Parsed {
  Instr in;
  std::string_view target;  // label operand; empty if none
};

/// One table instruction: its operands read per the entry's shape, then
/// encoded and decoded once (a label operand as offset 0) so field errors
/// carry the source line.
Parsed parse_instruction(const Ctx& c,
                         const std::vector<std::string_view>& ops) {
  using S = EncShape;
  const IsaTableEntry* e = find_entry(c.mnem);
  if (e == nullptr) c.fail("unknown mnemonic '" + c.mnem + "'");
  Parsed p;
  Instr& in = p.in;
  in.op = e->op;
  in.fmt = e->fmt;
  const bool post = isa::is_mem_post_increment(e->op);
  switch (e->shape) {
    case S::kU:
      c.need(ops, 2);
      in.rd = c.reg(ops[0]);
      in.imm = static_cast<i32>(
          static_cast<u32>(c.ranged(ops[1], -0x80000, 0xfffff, "upper20"))
          << 12);
      break;
    case S::kJ:
      c.need(ops, 2);
      in.rd = c.reg(ops[0]);
      p.target = ops[1];
      break;
    case S::kI:
    case S::kShift:
    case S::kClipImm:
    case S::kSimdLane:
      c.need(ops, 3);
      in.rd = c.reg(ops[0]);
      in.rs1 = c.reg(ops[1]);
      in.imm = c.imm(ops[2]);
      break;
    case S::kIAddr:
    case S::kS: {
      c.need(ops, 2);
      // Loads name their destination rd, stores their data register rs2.
      (e->shape == S::kIAddr ? in.rd : in.rs2) = c.reg(ops[0]);
      const auto [off, base] = c.addr(ops[1], post);
      in.rs1 = base;
      in.imm = off.empty() ? 0 : c.imm(off);
      break;
    }
    case S::kB:
      c.need(ops, 3);
      in.rs1 = c.reg(ops[0]);
      in.rs2 = c.reg(ops[1]);
      p.target = ops[2];
      break;
    case S::kBImm5:
      c.need(ops, 3);
      in.rs1 = c.reg(ops[0]);
      in.imm2 = static_cast<u8>(c.ranged(ops[1], -16, 15, "imm5") & 0x1f);
      p.target = ops[2];
      break;
    case S::kR:
    case S::kSimdQnt: {
      c.need(ops, 3);
      in.rd = c.reg(ops[0]);
      in.rs1 = c.reg(ops[1]);
      std::string_view rs2 = trim(ops[2]);  // pv.qnt prints "(reg)"
      if (e->shape == S::kSimdQnt && rs2.size() > 1 && rs2.front() == '(' &&
          rs2.back() == ')') {
        rs2 = rs2.substr(1, rs2.size() - 2);
      }
      in.rs2 = c.reg(rs2);
      break;
    }
    case S::kRUnary:
      c.need(ops, 2);
      in.rd = c.reg(ops[0]);
      in.rs1 = c.reg(ops[1]);
      break;
    case S::kRLoad:
    case S::kRStore: {
      c.need(ops, 2);
      const u8 r = c.reg(ops[0]);
      const auto [off, base] = c.addr(ops[1], post);
      in.rs1 = base;
      if (e->shape == S::kRLoad) {
        in.rd = r;
        in.rs2 = c.reg(off);
      } else {
        in.rs2 = r;
        in.rd = c.reg(off);
      }
      break;
    }
    case S::kCsr:
    case S::kCsrImm:
      c.need(ops, 3);
      in.rd = c.reg(ops[0]);
      in.imm = c.imm(ops[1]);
      if (e->shape == S::kCsr) {
        in.rs1 = c.reg(ops[2]);
      } else {
        in.imm2 = static_cast<u8>(c.ranged(ops[2], 0, 31, "uimm5"));
      }
      break;
    case S::kFixedWord:
      c.need(ops, 0);
      break;
    case S::kBitmanip:
      c.need(ops, 4);
      in.rd = c.reg(ops[0]);
      in.rs1 = c.reg(ops[1]);
      in.imm2 = static_cast<u8>(c.ranged(ops[2], 0, 31, "Is3"));
      in.imm = c.imm(ops[3]);
      break;
    case S::kHwBound:
      c.need(ops, 2);
      in.imm2 = c.loop(ops[0]);
      p.target = ops[1];
      break;
    case S::kHwCount:
      c.need(ops, 2);
      in.imm2 = c.loop(ops[0]);
      in.rs1 = c.reg(ops[1]);
      break;
    case S::kHwCounti:
      c.need(ops, 2);
      in.imm2 = c.loop(ops[0]);
      in.imm = c.imm(ops[1]);
      break;
    case S::kHwSetup:
    case S::kHwSetupi:
      c.need(ops, 3);
      in.imm2 = c.loop(ops[0]);
      in.rs1 = e->shape == S::kHwSetup
                   ? c.reg(ops[1])
                   : static_cast<u8>(c.ranged(ops[1], 0, 31, "loop count"));
      p.target = ops[2];
      break;
  }
  Instr probe = in;
  if (!p.target.empty()) probe.imm = 0;
  try {
    (void)isa::decode(isa::encode(probe), 0);
  } catch (const AsmError& err) {
    c.fail(err.what());
  } catch (const IllegalInstruction&) {
    c.fail("'" + c.mnem + "' operands do not form a legal encoding");
  }
  return p;
}

}  // namespace

u8 parse_register(std::string_view token) {
  const std::string t = lower(trim(token));
  for (unsigned i = 0; i < 32; ++i) {
    if (t == isa::reg_name(i)) return static_cast<u8>(i);
  }
  if (t.size() >= 2 && t[0] == 'x') {
    const auto v = parse_int(t.substr(1));
    if (v && *v >= 0 && *v <= 31) return static_cast<u8>(*v);
  }
  if (t == "fp") return 8;  // frame-pointer alias for s0
  throw AsmError("unknown register '" + std::string(token) + "'");
}

Program assemble_text(std::string_view source, addr_t base) {
  Assembler a(base);
  std::map<std::string, Assembler::Label, std::less<>> labels;

  unsigned line_no = 0;
  size_t pos = 0;
  while (pos <= source.size()) {
    const size_t nl = source.find('\n', pos);
    std::string_view line = source.substr(
        pos, nl == std::string_view::npos ? source.size() - pos : nl - pos);
    pos = (nl == std::string_view::npos) ? source.size() + 1 : nl + 1;
    ++line_no;

    // Strip comments.
    for (const auto marker : {std::string_view("#"), std::string_view("//")}) {
      const size_t at = line.find(marker);
      if (at != std::string_view::npos) line = line.substr(0, at);
    }
    line = trim(line);
    if (line.empty()) continue;

    Ctx ctx{a, line_no, labels, {}};

    // Leading labels ("name:"), possibly followed by an instruction.
    while (true) {
      const size_t colon = line.find(':');
      if (colon == std::string_view::npos) break;
      const std::string_view name = trim(line.substr(0, colon));
      if (name.empty() ||
          name.find_first_of(" \t(),") != std::string_view::npos) {
        break;  // a ':' inside an operand, not a label
      }
      const std::string key(name);
      auto it = labels.find(key);
      if (it == labels.end()) {
        it = labels.emplace(key, a.new_label()).first;
      }
      try {
        a.bind(it->second);
      } catch (const AsmError& e) {
        ctx.fail(e.what());
      }
      line = trim(line.substr(colon + 1));
      if (line.empty()) break;
    }
    if (line.empty()) continue;

    // Mnemonic = first whitespace-delimited token.
    const size_t sp = line.find_first_of(" \t");
    const std::string_view mnem =
        sp == std::string_view::npos ? line : line.substr(0, sp);
    const std::string_view rest =
        sp == std::string_view::npos ? std::string_view{} : trim(line.substr(sp));
    ctx.mnem = lower(mnem);
    const std::vector<std::string_view> ops = split_operands(rest);
    try {
      if (!emit_pseudo(ctx, ops)) {
        const Parsed p = parse_instruction(ctx, ops);
        if (p.target.empty()) {
          a.emit(p.in);
        } else {
          // finish() resolves every fixup kind to the offset target - pc.
          a.emit_fixup(p.in, ctx.target(p.target),
                       Assembler::FixKind::kBranch);
        }
      }
    } catch (const TextAsmError&) {
      throw;
    } catch (const AsmError& e) {
      ctx.fail(e.what());
    }
  }
  return a.finish();
}

}  // namespace xpulp::xasm
