// The reference unit of work: a fixed computation that does not use the
// program under test, timed beside it to measure how fast the host runs.
//
// The host shares its cores, caches and memory with other tenants, and
// their load slows the program by up to 1.8 times for seconds to minutes
// at a time; CPU time does not remove that, because the program is running
// all the while, only slower. The reference work slows down with it, so
// the benchmark states each CPU time in reference seconds: scaled by
// kReferenceMs over the CPU time of the reference pass next to it. The
// factor depends on the reference pass alone, so a change to the program
// moves reference times in the same proportion as it moves CPU times.
#pragma once

namespace perfbench {

/// CPU seconds the process has used so far, its threads together. The
/// benchmark times with this clock: it stops while the process waits for
/// a CPU, in this machine or in the host that runs it.
double cpu_seconds();

/// Nominal CPU time of one reference pass: about what one pass takes on
/// a 4-core 2.1 GHz Xeon virtual machine while its host is quiet, so
/// reference seconds read close to CPU seconds there.
inline constexpr double kReferenceMs = 3.0;

/// Runs one reference pass and returns its CPU milliseconds. The pass
/// builds and churns a hash table, then sorts an array: hashing, pointer
/// chasing and unpredictable branches, as the simulator's rounds have.
double reference_pass_ms();

/// The factor that turns CPU time into reference time, from the passes
/// measured before and after it.
inline double reference_scale(double before_ms, double after_ms) {
  return 2 * kReferenceMs / (before_ms + after_ms);
}

}  // namespace perfbench
