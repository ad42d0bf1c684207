// Timing parameters of the simulated BionicDB hardware.
//
// Defaults reproduce the paper's platform: a Xilinx Virtex-5 LX330 running at
// 125 MHz attached to the Convey HC-2 DDR2 memory subsystem (8 memory
// controllers used, ~10 GB/s), per paper sections 4.1 and 5.2.
#ifndef BIONICDB_SIM_CONFIG_H_
#define BIONICDB_SIM_CONFIG_H_

#include <cstdint>

namespace bionicdb::sim {

struct TimingConfig {
  /// FPGA fabric clock in MHz; throughput numbers are cycles / clock.
  double clock_mhz = 125.0;

  /// DRAM read/write latency in cycles, charged to every timed access
  /// whoever issues it: the HC-2's random-access latency behind its
  /// crossbar memory interconnect (~760 ns = 95 cycles at 125 MHz). The
  /// model has no open-row or burst discount. Whether this value
  /// reproduces the paper's absolute rates is an open calibration question
  /// (ROADMAP item 4): fig10_hash measures ~20 Mops at 16 in flight where
  /// the paper reports ~7 Mops.
  uint32_t dram_latency_cycles = 95;

  /// Independent DRAM channels (HC-2 exposes 8 controllers to one chip).
  uint32_t dram_channels = 8;

  /// Outstanding requests a single channel will queue before backpressure.
  uint32_t dram_channel_queue_depth = 16;

  /// Cycles a channel is occupied issuing one request (bandwidth model).
  uint32_t dram_issue_gap_cycles = 1;

  /// One-way hop latency of the on-chip message-passing fabric (24 ns at
  /// 125 MHz = 3 cycles; a request/response pair costs 6 cycles, Table 3).
  uint32_t onchip_hop_cycles = 3;

  /// Softcore context switch: save current txn context + restore next from
  /// the BRAM context table (paper section 4.5).
  uint32_t context_switch_cycles = 10;

  /// Cycles per CPU instruction: IFetch/Decode/Execute/Memory/Writeback with
  /// no pipelining or out-of-order execution (paper section 4.3).
  uint32_t cpu_instruction_cycles = 5;

  /// Cycles to Prepare + Dispatch a DB instruction to the coprocessor.
  uint32_t db_dispatch_cycles = 2;

  /// One-way latency of the inter-chip fabric tier (NIC/PCIe class — a
  /// 2 µs network hop is 250 cycles at 125 MHz). Applies on top of the
  /// on-chip hops at each end when a packet crosses chips; only meaningful
  /// when core::EngineOptions::workers_per_chip groups the workers into
  /// chips.
  uint32_t interchip_latency_cycles = 250;

  /// Cycles an inter-chip link is occupied serialising one packet
  /// (bandwidth model): back-to-back packets on the same directed
  /// chip-pair link queue behind each other at this gap.
  uint32_t interchip_issue_gap_cycles = 4;

  /// Event-driven fast path: when every registered block agrees (via
  /// Component::NextWakeCycle) that the next interesting cycle is now + k,
  /// the simulator warps the clock by k and bulk-charges the skipped cycles
  /// to the same idle/stall buckets per-cycle ticking would have used.
  /// Cycle counts, engine results and stats are bit-identical in both
  /// modes. On by default; false ticks every block every cycle, the
  /// reference the differential tests compare against.
  bool event_driven = true;

  /// Converts a cycle count to seconds at the configured clock.
  double CyclesToSeconds(uint64_t cycles) const {
    return double(cycles) / (clock_mhz * 1e6);
  }

  /// Throughput in operations/second given work completed in `cycles`.
  double Throughput(uint64_t ops, uint64_t cycles) const {
    if (cycles == 0) return 0;
    return double(ops) / CyclesToSeconds(cycles);
  }
};

}  // namespace bionicdb::sim

#endif  // BIONICDB_SIM_CONFIG_H_
