// Host-thread fan-out: the one parallel loop the simulator's host code uses.
//
// Engines tick on one thread each. Host code spreads work that shares
// nothing across host cores through ParallelFor: a sweep runs independent
// engines side by side (host::RunSweep), and a database bulk-loads its
// partitions into their own arenas (db::Database::Populate).
#ifndef BIONICDB_COMMON_PARALLEL_H_
#define BIONICDB_COMMON_PARALLEL_H_

#include <cstddef>
#include <cstdint>
#include <functional>

namespace bionicdb {

/// Hardware threads available on the host, never reported as zero.
uint32_t HostHardwareThreads();

/// Runs `job(i)` for every i in [0, n) on min(n, max_threads, hardware
/// threads) host threads (`max_threads` 0: no cap below the hardware), the
/// calling thread being one of them. Threads claim indices from a shared
/// cursor in increasing order, so which thread runs a job is unspecified;
/// jobs must share no mutable state. Inside a job of another ParallelFor it
/// runs serially on the calling thread, so nested loops never multiply
/// threads.
///
/// An exception from a job is caught on its thread. No index is claimed
/// after it, every thread is joined, and the exception of the lowest-index
/// job that threw is rethrown on the caller: the one a serial loop would
/// have thrown.
void ParallelFor(size_t n, uint32_t max_threads,
                 const std::function<void(size_t)>& job);

}  // namespace bionicdb

#endif  // BIONICDB_COMMON_PARALLEL_H_
