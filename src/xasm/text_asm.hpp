// Text-based assembler front end.
//
// Accepts one instruction or label per line, `#` / `//` comments, ABI or
// xN register names, decimal/hex immediates that fit 32 bits, and named
// labels for branch/jump/hardware-loop targets (forward references
// allowed). Every instruction of the ISA table is accepted by mnemonic plus
// format suffix, with the operand syntax the disassembler prints for its
// shape, so assemble(disassemble(word)) round-trips for every word but
// control flow (whose targets must be labels) and fence (a nop here). The
// pseudo-instructions are nop, halt, ret, li, mv, j and fence.
//
//   loop:
//     p.lw!      t1, 4(a0!)        # post-increment load
//     pv.sdotusp.n a4, t1, t2
//     addi       s3, s3, -1
//     bne        s3, zero, loop
//     ecall
#pragma once

#include <string_view>

#include "xasm/assembler.hpp"

namespace xpulp::xasm {

/// Syntax or semantic errors carry the 1-based source line.
class TextAsmError : public AsmError {
 public:
  TextAsmError(unsigned line, const std::string& what)
      : AsmError("line " + std::to_string(line) + ": " + what), line_(line) {}
  unsigned line() const { return line_; }

 private:
  unsigned line_;
};

/// Assemble a whole source buffer into a program image based at `base`.
Program assemble_text(std::string_view source, addr_t base = 0);

/// Parse a register name ("a0", "x10", "zero", ...); returns 0..31.
/// Throws AsmError for unknown names.
u8 parse_register(std::string_view token);

}  // namespace xpulp::xasm
