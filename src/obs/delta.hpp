// Field-wise counter arithmetic over the simulator's stat structs, shared
// by the sampler windows and the profiler's region cells. Kept as
// plain free functions instead of operators on the sim structs so the hot
// simulator headers stay arithmetic-free.
#pragma once

#include "mem/memory.hpp"
#include "sim/core.hpp"

namespace xpulp::obs {

inline sim::PerfCounters diff(const sim::PerfCounters& a,
                              const sim::PerfCounters& b) {
  sim::PerfCounters d;
  d.cycles = a.cycles - b.cycles;
  d.instructions = a.instructions - b.instructions;
  d.taken_branches = a.taken_branches - b.taken_branches;
  d.not_taken_branches = a.not_taken_branches - b.not_taken_branches;
  d.jumps = a.jumps - b.jumps;
  d.branch_stall_cycles = a.branch_stall_cycles - b.branch_stall_cycles;
  d.load_use_stall_cycles = a.load_use_stall_cycles - b.load_use_stall_cycles;
  d.mem_stall_cycles = a.mem_stall_cycles - b.mem_stall_cycles;
  d.mul_div_stall_cycles = a.mul_div_stall_cycles - b.mul_div_stall_cycles;
  d.hwloop_backedges = a.hwloop_backedges - b.hwloop_backedges;
  d.loads = a.loads - b.loads;
  d.stores = a.stores - b.stores;
  d.scalar_alu_ops = a.scalar_alu_ops - b.scalar_alu_ops;
  d.mul_ops = a.mul_ops - b.mul_ops;
  d.div_ops = a.div_ops - b.div_ops;
  d.simd_alu_ops = a.simd_alu_ops - b.simd_alu_ops;
  d.qnt_ops = a.qnt_ops - b.qnt_ops;
  d.qnt_stall_cycles = a.qnt_stall_cycles - b.qnt_stall_cycles;
  d.csr_ops = a.csr_ops - b.csr_ops;
  d.sys_ops = a.sys_ops - b.sys_ops;
  d.mac_ops = a.mac_ops - b.mac_ops;
  for (unsigned i = 0; i < 4; ++i) {
    d.dotp_ops[i] = a.dotp_ops[i] - b.dotp_ops[i];
  }
  for (unsigned i = 0; i < 3; ++i) {
    d.mixed_dotp_ops[i] = a.mixed_dotp_ops[i] - b.mixed_dotp_ops[i];
  }
  d.lsu_data_toggles = a.lsu_data_toggles - b.lsu_data_toggles;
  return d;
}

inline void accumulate(sim::PerfCounters& a, const sim::PerfCounters& d) {
  a.cycles += d.cycles;
  a.instructions += d.instructions;
  a.taken_branches += d.taken_branches;
  a.not_taken_branches += d.not_taken_branches;
  a.jumps += d.jumps;
  a.branch_stall_cycles += d.branch_stall_cycles;
  a.load_use_stall_cycles += d.load_use_stall_cycles;
  a.mem_stall_cycles += d.mem_stall_cycles;
  a.mul_div_stall_cycles += d.mul_div_stall_cycles;
  a.hwloop_backedges += d.hwloop_backedges;
  a.loads += d.loads;
  a.stores += d.stores;
  a.scalar_alu_ops += d.scalar_alu_ops;
  a.mul_ops += d.mul_ops;
  a.div_ops += d.div_ops;
  a.simd_alu_ops += d.simd_alu_ops;
  a.qnt_ops += d.qnt_ops;
  a.qnt_stall_cycles += d.qnt_stall_cycles;
  a.csr_ops += d.csr_ops;
  a.sys_ops += d.sys_ops;
  a.mac_ops += d.mac_ops;
  for (unsigned i = 0; i < 4; ++i) a.dotp_ops[i] += d.dotp_ops[i];
  for (unsigned i = 0; i < 3; ++i) a.mixed_dotp_ops[i] += d.mixed_dotp_ops[i];
  a.lsu_data_toggles += d.lsu_data_toggles;
}

inline mem::MemStats diff(const mem::MemStats& a, const mem::MemStats& b) {
  mem::MemStats d;
  d.loads = a.loads - b.loads;
  d.stores = a.stores - b.stores;
  d.load_bytes = a.load_bytes - b.load_bytes;
  d.store_bytes = a.store_bytes - b.store_bytes;
  d.misaligned_accesses = a.misaligned_accesses - b.misaligned_accesses;
  d.contention_stalls = a.contention_stalls - b.contention_stalls;
  return d;
}

inline void accumulate(mem::MemStats& a, const mem::MemStats& d) {
  a.loads += d.loads;
  a.stores += d.stores;
  a.load_bytes += d.load_bytes;
  a.store_bytes += d.store_bytes;
  a.misaligned_accesses += d.misaligned_accesses;
  a.contention_stalls += d.contention_stalls;
}

inline sim::DotpActivity diff(const sim::DotpActivity& a,
                              const sim::DotpActivity& b) {
  sim::DotpActivity d;
  for (unsigned i = 0; i < 4; ++i) {
    d.operand_toggles[i] = a.operand_toggles[i] - b.operand_toggles[i];
    d.ops[i] = a.ops[i] - b.ops[i];
  }
  return d;
}

inline void accumulate(sim::DotpActivity& a, const sim::DotpActivity& d) {
  for (unsigned i = 0; i < 4; ++i) {
    a.operand_toggles[i] += d.operand_toggles[i];
    a.ops[i] += d.ops[i];
  }
}

inline sim::SuperblockStats diff(const sim::SuperblockStats& a,
                                 const sim::SuperblockStats& b) {
  sim::SuperblockStats d;
  d.blocks_compiled = a.blocks_compiled - b.blocks_compiled;
  d.compile_rejects = a.compile_rejects - b.compile_rejects;
  d.entries = a.entries - b.entries;
  d.entry_rejects = a.entry_rejects - b.entry_rejects;
  d.fused_iterations = a.fused_iterations - b.fused_iterations;
  d.macro_iterations = a.macro_iterations - b.macro_iterations;
  d.fused_instructions = a.fused_instructions - b.fused_instructions;
  d.smc_bails = a.smc_bails - b.smc_bails;
  d.trap_bails = a.trap_bails - b.trap_bails;
  d.invalidations = a.invalidations - b.invalidations;
  d.sample_flushes = a.sample_flushes - b.sample_flushes;
  d.burst_flushes = a.burst_flushes - b.burst_flushes;
  return d;
}

}  // namespace xpulp::obs
